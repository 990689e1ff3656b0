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
	// LogLikelihood is the final mean log-likelihood of the training set.
	LogLikelihood float64
	// History holds the mean log-likelihood after each iteration.
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

	for iter := 0; iter < cfg.MaxIters; iter++ {
		// E-step: accumulate responsibility-weighted sufficient statistics,
		// sharded over fixed point chunks. Chunk boundaries depend only on
		// the point count, and the partials are reduced in chunk order below,
		// so the accumulated statistics are independent of worker count.
		partials, err := engine.Map(runner, chunks, func(_ int, c chunk) (*eStepStats, error) {
			return eStep(model, points[c.lo:c.hi], k), nil
		})
		if err != nil {
			return nil, err
		}
		ll := 0.0
		nk := make([]float64, k)
		meanSum := make([]linalg.Vec2, k)
		for _, p := range partials {
			ll += p.ll
			for j := 0; j < k; j++ {
				nk[j] += p.nk[j]
				meanSum[j] = meanSum[j].Add(p.meanSum[j])
			}
		}

		// M-step part 1: means and weights.
		n := float64(len(points))
		for j := 0; j < k; j++ {
			if nk[j] < 1e-10 {
				// Dead component: re-seed on a random point with a broad
				// covariance so it can recapture mass.
				model.Components[j].Mean = points[rng.Intn(len(points))]
				model.Components[j].Weight = 1 / n
				model.Components[j].Cov = linalg.SymDiag(0.05, 0.05)
				continue
			}
			model.Components[j].Weight = nk[j] / n
			model.Components[j].Mean = meanSum[j].Scale(1 / nk[j])
		}

		// M-step part 2: covariances need the new means; the responsibility
		// recomputation shards over the same chunks.
		covParts, err := engine.Map(runner, chunks, func(_ int, c chunk) ([]linalg.Sym2, error) {
			return covStep(model, points[c.lo:c.hi], k), nil
		})
		if err != nil {
			return nil, err
		}
		covSum := make([]linalg.Sym2, k)
		for _, p := range covParts {
			for j := 0; j < k; j++ {
				covSum[j] = covSum[j].Add(p[j])
			}
		}
		for j := 0; j < k; j++ {
			if nk[j] < 1e-10 {
				continue
			}
			cov := covSum[j].Scale(1 / nk[j]).Regularize(cfg.CovReg)
			if cfg.DiagonalCov {
				cov.XY = 0
			}
			if !cov.IsPositiveDefinite() {
				cov = cov.Regularize(1e-3)
			}
			model.Components[j].Cov = cov
		}
		renormalize(model)
		if err := prepareAll(model); err != nil {
			return nil, fmt.Errorf("gmm: iteration %d: %w", iter, err)
		}

		meanLL := ll / n
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
// working set (points + K responsibilities) well inside L2 while leaving
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

// eStepStats are one chunk's responsibility-weighted sufficient statistics.
type eStepStats struct {
	ll      float64
	nk      []float64
	meanSum []linalg.Vec2
}

// eStep accumulates first-moment sufficient statistics over one point chunk.
// It only reads the model, so chunks evaluate concurrently.
func eStep(model *Model, points []linalg.Vec2, k int) *eStepStats {
	st := &eStepStats{nk: make([]float64, k), meanSum: make([]linalg.Vec2, k)}
	resp := make([]float64, k)
	for _, x := range points {
		st.ll += model.Responsibilities(x, resp)
		for j := 0; j < k; j++ {
			r := resp[j]
			if r == 0 {
				continue
			}
			st.nk[j] += r
			st.meanSum[j] = st.meanSum[j].Add(x.Scale(r))
		}
	}
	return st
}

// covStep accumulates the second-moment statistics around the updated means
// over one point chunk.
func covStep(model *Model, points []linalg.Vec2, k int) []linalg.Sym2 {
	covSum := make([]linalg.Sym2, k)
	resp := make([]float64, k)
	for _, x := range points {
		model.Responsibilities(x, resp)
		for j := 0; j < k; j++ {
			r := resp[j]
			if r == 0 {
				continue
			}
			d := x.Sub(model.Components[j].Mean)
			covSum[j] = covSum[j].Add(d.OuterSelf().Scale(r))
		}
	}
	return covSum
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

func renormalize(m *Model) {
	total := 0.0
	for i := range m.Components {
		total += m.Components[i].Weight
	}
	if total <= 0 {
		u := 1 / float64(len(m.Components))
		for i := range m.Components {
			m.Components[i].Weight = u
		}
		return
	}
	for i := range m.Components {
		m.Components[i].Weight /= total
	}
}

func prepareAll(m *Model) error {
	for i := range m.Components {
		if err := m.Components[i].prepare(); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
	}
	return nil
}
