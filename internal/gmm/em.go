package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// TrainConfig controls EM training (Sec. 3.3).
type TrainConfig struct {
	// K is the number of Gaussian components; the paper deploys K = 256.
	K int
	// MaxIters bounds the number of EM iterations.
	MaxIters int
	// Tol is the convergence threshold on the change in mean log-likelihood
	// between iterations (the paper's "change in MLE" criterion).
	Tol float64
	// CovReg is added to covariance diagonals each M-step to keep estimates
	// positive definite when a component collapses.
	CovReg float64
	// Seed drives initialization; fixed seeds give reproducible models.
	Seed int64
	// MaxSamples, when positive, caps the training set by uniform
	// subsampling. EM is O(N*K) per iteration, and traces can run to tens
	// of millions of records; subsampling preserves the density shape.
	MaxSamples int
	// LloydIters is the number of k-means refinement sweeps used to place
	// the initial component means.
	LloydIters int
	// DiagonalCov constrains covariances to be diagonal. The hardware
	// exponent then needs two multiplies instead of five per Gaussian —
	// the cheaper-datapath ablation — at the cost of not modeling
	// page/time correlation within a component.
	DiagonalCov bool
	// Workers bounds the E-step fan-out: 0 uses one worker per core, 1
	// forces sequential execution. The E-step is sharded over fixed-size
	// point chunks whose partial statistics are reduced in chunk order, so
	// the trained model is bit-identical at any worker count (the engine's
	// determinism contract); Workers affects wall clock only.
	Workers int
}

// DefaultTrainConfig mirrors the paper's deployed configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		K:          256,
		MaxIters:   50,
		Tol:        1e-4,
		CovReg:     1e-6,
		Seed:       1,
		MaxSamples: 20000,
		LloydIters: 4,
	}
}

func (c TrainConfig) sanitized() TrainConfig {
	d := DefaultTrainConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.MaxIters <= 0 {
		c.MaxIters = d.MaxIters
	}
	if c.Tol <= 0 {
		c.Tol = d.Tol
	}
	if c.CovReg <= 0 {
		c.CovReg = d.CovReg
	}
	if c.LloydIters < 0 {
		c.LloydIters = d.LloydIters
	}
	return c
}

// TrainResult reports how training went.
type TrainResult struct {
	Model *Model
	// Iters is the number of EM iterations performed.
	Iters int
	// Converged reports whether the Tol criterion stopped training (as
	// opposed to hitting MaxIters).
	Converged bool
	// LogLikelihood is the last History entry: the mean log-likelihood of
	// the model that entered the final iteration, one M-step behind Model.
	LogLikelihood float64
	// History holds, per iteration, the mean log-likelihood of the training
	// set under the model entering that iteration's E-step, which computes
	// it as a by-product.
	History []float64
	// SamplesUsed is the size of the (possibly subsampled) training set.
	SamplesUsed int
}

// Fit trains a GMM on normalized samples with the EM algorithm. Samples
// should already be normalized (see trace.Normalizer); training on raw page
// indices spanning 2^40 would be numerically hopeless.
func Fit(samples []trace.Sample, cfg TrainConfig) (*TrainResult, error) {
	cfg = cfg.sanitized()
	if len(samples) < 2 {
		return nil, errors.New("gmm: need at least 2 samples to fit")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	points := make([]linalg.Vec2, len(samples))
	for i, s := range samples {
		points[i] = linalg.V2(s.Page, s.Timestamp)
	}
	if cfg.MaxSamples > 0 && len(points) > cfg.MaxSamples {
		points = subsample(points, cfg.MaxSamples, rng)
	}
	k := cfg.K
	if k > len(points) {
		k = len(points)
	}

	model, err := initialModel(points, k, rng, cfg)
	if err != nil {
		return nil, err
	}

	res := &TrainResult{Model: model, SamplesUsed: len(points)}
	prevLL := math.Inf(-1)
	runner := engine.NewRunner(cfg.Workers)
	chunks := chunkRanges(len(points), emChunk)
	n := float64(len(points))

	for iter := 0; iter < cfg.MaxIters; iter++ {
		// E-step: one pass over fixed point chunks. Chunk boundaries depend
		// only on the point count, and the partials are reduced in chunk
		// order below, so the statistics are independent of worker count.
		terms := packTerms(model.Components)
		partials, err := engine.Map(runner, chunks, func(_ int, c chunk) (*eStepStats, error) {
			return eStep(terms, points[c.lo:c.hi]), nil
		})
		if err != nil {
			return nil, err
		}
		st := partials[0]
		for _, p := range partials[1:] {
			st.add(p)
		}

		// M-step: weights, and means and covariances from the moments
		// around the means the E-step used.
		for j := range model.Components {
			c := &model.Components[j]
			m := &st.moments[j]
			if m.n < 1e-10 {
				// Dead component: re-seed on a random point with a broad
				// covariance so it can recapture mass.
				c.Mean = points[rng.Intn(len(points))]
				c.Weight = 1 / n
				c.Cov = linalg.SymDiag(0.05, 0.05)
				continue
			}
			c.Weight = m.n / n
			delta := m.s.Scale(1 / m.n)
			c.Mean = c.Mean.Add(delta)
			cov := m.ss.Scale(1 / m.n).Sub(delta.OuterSelf()).Regularize(cfg.CovReg)
			if cfg.DiagonalCov {
				cov.XY = 0
			}
			if !cov.IsPositiveDefinite() {
				cov = cov.Regularize(1e-3)
			}
			c.Cov = cov
		}
		if model, err = newPrepared(model.Components); err != nil {
			return nil, fmt.Errorf("gmm: iteration %d: %w", iter, err)
		}
		res.Model = model

		meanLL := st.ll / n
		res.History = append(res.History, meanLL)
		res.Iters = iter + 1
		res.LogLikelihood = meanLL
		if iter > 0 && math.Abs(meanLL-prevLL) < cfg.Tol {
			res.Converged = true
			break
		}
		prevLL = meanLL
	}
	if err := res.Model.Validate(); err != nil {
		return nil, err
	}
	res.Model.rebuildBundle()
	return res, nil
}

// FitTrace is the end-to-end convenience path: preprocess a raw trace per
// Sec. 3.1 (trim, page index, Algorithm 1 timestamps), fit the normalizer,
// and train. It returns the trained model along with the normalizer needed
// to score future requests in the same coordinate system.
func FitTrace(t trace.Trace, tcfg trace.TransformConfig, cfg TrainConfig) (*TrainResult, trace.Normalizer, error) {
	samples := trace.Preprocess(t, tcfg)
	if len(samples) < 2 {
		return nil, trace.Normalizer{}, errors.New("gmm: trace too short after preprocessing")
	}
	norm := trace.FitNormalizer(samples)
	res, err := Fit(norm.ApplyAll(samples), cfg)
	return res, norm, err
}

// emChunk is the number of points per E-step task. The chunk layout is a
// pure function of the point count — never of the worker count — which is
// what keeps chunked accumulation (and therefore the trained model)
// bit-identical at any TrainConfig.Workers value. 2048 points keep a chunk's
// working set (points + K moments) well inside L2 while leaving
// enough tasks to feed a worker pool on the 20k-sample default training set.
const emChunk = 2048

// chunk is one half-open E-step point range.
type chunk struct{ lo, hi int }

// chunkRanges splits n points into emChunk-sized ranges.
func chunkRanges(n, size int) []chunk {
	out := make([]chunk, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, chunk{lo, hi})
	}
	return out
}

// moments are one component's responsibility-weighted sums over a chunk,
// taken around the mean c the E-step scored it with: n = Σr, s = Σr·(x−c)
// and ss = Σr·(x−c)(x−c)ᵀ. The M-step reads the new mean as c + δ and the
// covariance as ss/n − δδᵀ, with δ = s/n. Centring on c instead of the
// origin limits the cancellation in ss/n − δδᵀ to about log2(1 + δ²/σ²)
// bits per axis, where δ is one iteration's mean move, instead of
// log2(1 + μ²/σ²).
type moments struct {
	n  float64
	s  linalg.Vec2
	ss linalg.Sym2
}

// eStepStats are one chunk's log-likelihood sum and per-component moments.
type eStepStats struct {
	ll      float64
	moments []moments
}

// add folds o into st, component by component.
func (st *eStepStats) add(o *eStepStats) {
	st.ll += o.ll
	for j := range st.moments {
		m, p := &st.moments[j], &o.moments[j]
		m.n += p.n
		m.s = m.s.Add(p.s)
		m.ss = m.ss.Add(p.ss)
	}
}

// eStep scores one point chunk against the packed terms and accumulates its
// moments. It only reads the terms, so chunks evaluate concurrently.
func eStep(terms []linalg.Term, points []linalg.Vec2) *eStepStats {
	st := &eStepStats{moments: make([]moments, len(terms))}
	p := newPosterior(len(terms))
	for _, x := range points {
		st.ll += p.eval(terms, x.X, x.Y)
		for n, j := range p.idx {
			t, m := &terms[j], &st.moments[j]
			d := linalg.V2(x.X-t.MeanX, x.Y-t.MeanY)
			w := d.Scale(p.resp[n])
			m.n += p.resp[n]
			m.s = m.s.Add(w)
			m.ss = m.ss.Add(linalg.Sym2{XX: w.X * d.X, XY: w.X * d.Y, YY: w.Y * d.Y})
		}
	}
	return st
}

// posterior is one point's E-step result, reused point after point: the
// components whose responsibility is not cut to zero, in ascending order,
// and their responsibilities.
type posterior struct {
	ld   []float64 // ld[j]: term j's log-density at the point
	idx  []int     // the surviving components
	resp []float64 // resp[n]: the responsibility of component idx[n]
}

func newPosterior(k int) *posterior {
	return &posterior{ld: make([]float64, k), idx: make([]int, 0, k), resp: make([]float64, 0, k)}
}

// eval fills p with the responsibilities of the terms at (x, y) and returns
// the point's log-density.
func (p *posterior) eval(terms []linalg.Term, x, y float64) float64 {
	maxLog := math.Inf(-1)
	for j := range terms {
		v := terms[j].LogDensity(-0.5, x, y)
		p.ld[j] = v
		if v > maxLog {
			maxLog = v
		}
	}
	p.idx, p.resp = p.idx[:0], p.resp[:0]
	if math.IsInf(maxLog, -1) {
		// No component claims the point; spread responsibility uniformly.
		u := 1 / float64(len(terms))
		for j := range terms {
			p.idx = append(p.idx, j)
			p.resp = append(p.resp, u)
		}
		return maxLog
	}
	sum := 0.0
	for j, v := range p.ld[:len(terms)] {
		// The cut. The maximum term contributes exp(0) = 1, so sum >= 1,
		// and a term with d < expTinyCut has a true responsibility below
		// e^-37.5 ≈ 5.2e-17 < 2^-54, a quarter of an ulp of 1. Giving it
		// exactly zero and skipping its exp drops at most K·2^-54 of the
		// point's mass (1.4e-14 at K = 256): round-off, not a different
		// model. A NaN d compares false and is never cut.
		d := v - maxLog
		if d < expTinyCut {
			continue
		}
		e := math.Exp(d)
		p.idx = append(p.idx, j)
		p.resp = append(p.resp, e)
		sum += e
	}
	inv := 1 / sum
	for n := range p.resp {
		p.resp[n] *= inv
	}
	return maxLog + math.Log(sum)
}

func subsample(points []linalg.Vec2, n int, rng *rand.Rand) []linalg.Vec2 {
	out := make([]linalg.Vec2, n)
	// Uniform stride with random phase keeps temporal coverage while the
	// random phase avoids aliasing with periodic workloads.
	stride := float64(len(points)) / float64(n)
	phase := rng.Float64() * stride
	for i := range out {
		idx := int(phase + float64(i)*stride)
		if idx >= len(points) {
			idx = len(points) - 1
		}
		out[i] = points[idx]
	}
	return out
}

func initialModel(points []linalg.Vec2, k int, rng *rand.Rand, cfg TrainConfig) (*Model, error) {
	centers := kMeansPlusPlus(points, k, rng, cfg.LloydIters)
	comps := make([]Component, len(centers))
	// Start with a shared spherical covariance scaled to the data spread.
	spread := dataSpread(points)
	init := math.Max(spread*spread/float64(k), 1e-4)
	for i, c := range centers {
		comps[i] = Component{
			Weight: 1 / float64(len(centers)),
			Mean:   c,
			Cov:    linalg.SymDiag(init, init),
		}
	}
	return newPrepared(comps)
}

func dataSpread(points []linalg.Vec2) float64 {
	if len(points) == 0 {
		return 1
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return math.Max(maxX-minX, math.Max(maxY-minY, 1e-3))
}
