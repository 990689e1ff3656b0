package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/trace"
	"repro/internal/workload"
)

func samplesFromPoints(pts []linalg.Vec2) []trace.Sample {
	out := make([]trace.Sample, len(pts))
	for i, p := range pts {
		out[i] = trace.Sample{Page: p.X, Timestamp: p.Y}
	}
	return out
}

func TestFitRecoversTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := sampleMixture(4000, rng)
	cfg := TrainConfig{K: 2, MaxIters: 100, Tol: 1e-6, Seed: 7}
	res, err := Fit(samplesFromPoints(pts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.K() != 2 {
		t.Fatalf("K = %d", res.Model.K())
	}
	// Identify the components by their mean X.
	a, b := res.Model.Components[0], res.Model.Components[1]
	if a.Mean.X > b.Mean.X {
		a, b = b, a
	}
	if math.Abs(a.Mean.X-0.2) > 0.05 || math.Abs(a.Mean.Y-0.3) > 0.05 {
		t.Errorf("cluster A mean = %v, want ~(0.2, 0.3)", a.Mean)
	}
	if math.Abs(b.Mean.X-0.8) > 0.05 || math.Abs(b.Mean.Y-0.7) > 0.05 {
		t.Errorf("cluster B mean = %v, want ~(0.8, 0.7)", b.Mean)
	}
	// Mixing weights should approximate 0.7/0.3.
	if math.Abs(a.Weight-0.7) > 0.07 {
		t.Errorf("cluster A weight = %v, want ~0.7", a.Weight)
	}
}

func TestFitLikelihoodMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := sampleMixture(2000, rng)
	res, err := Fit(samplesFromPoints(pts), TrainConfig{K: 4, MaxIters: 30, Tol: 1e-12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// EM guarantees non-decreasing likelihood (up to component re-seeding
	// and numerics); allow a tiny tolerance.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1]-1e-6 {
			t.Errorf("LL decreased at iter %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestFitConvergesAndValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := sampleMixture(3000, rng)
	res, err := Fit(samplesFromPoints(pts), TrainConfig{K: 8, MaxIters: 200, Tol: 1e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("EM did not converge in 200 iterations on easy data")
	}
	if err := res.Model.Validate(); err != nil {
		t.Errorf("trained model invalid: %v", err)
	}
	if res.SamplesUsed != 3000 {
		t.Errorf("SamplesUsed = %d", res.SamplesUsed)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, TrainConfig{}); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, err := Fit([]trace.Sample{{Page: 1, Timestamp: 1}}, TrainConfig{}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestFitHandlesDuplicatePoints(t *testing.T) {
	// All identical points: covariance regularization must keep PD.
	samples := make([]trace.Sample, 100)
	for i := range samples {
		samples[i] = trace.Sample{Page: 0.5, Timestamp: 0.5}
	}
	res, err := Fit(samples, TrainConfig{K: 3, MaxIters: 10, Seed: 2})
	if err != nil {
		t.Fatalf("degenerate data broke EM: %v", err)
	}
	if err := res.Model.Validate(); err != nil {
		t.Errorf("model invalid on degenerate data: %v", err)
	}
}

func TestFitKClampedToSampleCount(t *testing.T) {
	samples := []trace.Sample{
		{Page: 0, Timestamp: 0}, {Page: 1, Timestamp: 1}, {Page: 0.5, Timestamp: 0.2},
	}
	res, err := Fit(samples, TrainConfig{K: 256, MaxIters: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.K() > 3 {
		t.Errorf("K = %d, want <= 3", res.Model.K())
	}
}

func TestFitSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := sampleMixture(50000, rng)
	cfg := TrainConfig{K: 4, MaxIters: 20, Seed: 8, MaxSamples: 5000}
	res, err := Fit(samplesFromPoints(pts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != 5000 {
		t.Errorf("SamplesUsed = %d, want 5000", res.SamplesUsed)
	}
	if err := res.Model.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := sampleMixture(1000, rng)
	samples := samplesFromPoints(pts)
	cfg := TrainConfig{K: 4, MaxIters: 15, Seed: 11}
	r1, err := Fit(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fit(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Model.Components {
		c1, c2 := r1.Model.Components[i], r2.Model.Components[i]
		if c1.Mean != c2.Mean || c1.Weight != c2.Weight || c1.Cov != c2.Cov {
			t.Fatalf("component %d differs across identical runs", i)
		}
	}
}

func TestFitTraceEndToEnd(t *testing.T) {
	// Synthetic trace with two hot page clusters.
	rng := rand.New(rand.NewSource(77))
	var tr trace.Trace
	for i := 0; i < 20000; i++ {
		var page uint64
		if rng.Float64() < 0.5 {
			page = uint64(1000 + rng.Intn(50))
		} else {
			page = uint64(9000 + rng.Intn(50))
		}
		tr = append(tr, trace.Record{Op: trace.Read, Addr: page << trace.PageShift})
	}
	tr.Stamp()
	res, norm, err := FitTrace(tr, trace.DefaultTransformConfig(), TrainConfig{K: 8, MaxIters: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Hot cluster centers should score far above a cold page.
	p1, t1 := norm.ApplyPageTime(1025, 0)
	pc, tc := norm.ApplyPageTime(5000, 0)
	hot := res.Model.ScorePageTime(p1, t1)
	cold := res.Model.ScorePageTime(pc, tc)
	if hot <= cold {
		t.Errorf("hot page score %v <= cold page score %v", hot, cold)
	}
}

func TestFitTraceTooShort(t *testing.T) {
	tr := trace.Trace{{Op: trace.Read, Addr: 0}}
	if _, _, err := FitTrace(tr, trace.DefaultTransformConfig(), TrainConfig{}); err == nil {
		t.Error("short trace accepted")
	}
}

func TestKMeansPlusPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := sampleMixture(1000, rng)
	centers := kMeansPlusPlus(pts, 2, rng, 10)
	if len(centers) != 2 {
		t.Fatalf("got %d centers", len(centers))
	}
	a, b := centers[0], centers[1]
	if a.X > b.X {
		a, b = b, a
	}
	if math.Abs(a.X-0.2) > 0.1 || math.Abs(b.X-0.8) > 0.1 {
		t.Errorf("centers %v, %v not near cluster means", a, b)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if kMeansPlusPlus(nil, 3, rand.New(rand.NewSource(1)), 2) != nil {
		t.Error("empty points should give nil")
	}
	pts := []linalg.Vec2{{X: 1, Y: 1}}
	c := kMeansPlusPlus(pts, 5, rand.New(rand.NewSource(1)), 2)
	if len(c) != 1 {
		t.Errorf("k clamp failed: %d centers", len(c))
	}
	// All-identical points: must not loop forever.
	same := make([]linalg.Vec2, 10)
	for i := range same {
		same[i] = linalg.V2(2, 2)
	}
	c = kMeansPlusPlus(same, 3, rand.New(rand.NewSource(1)), 2)
	if len(c) != 3 {
		t.Errorf("identical points: %d centers, want 3", len(c))
	}
}

func TestTrainConfigSanitized(t *testing.T) {
	c := TrainConfig{}.sanitized()
	d := DefaultTrainConfig()
	if c.K != d.K || c.MaxIters != d.MaxIters || c.Tol != d.Tol {
		t.Errorf("sanitized zero config = %+v", c)
	}
}

// TestFitParallelEStepBitIdentical pins the E-step sharding contract: chunk
// boundaries and the reduction order depend only on the point count, so the
// trained model is bit-identical at any worker count.
func TestFitParallelEStepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := sampleMixture(6000, rng)
	samples := samplesFromPoints(pts)
	fit := func(workers int) *TrainResult {
		res, err := Fit(samples, TrainConfig{K: 16, MaxIters: 12, Seed: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := fit(1), fit(8)
	if seq.Iters != par.Iters || seq.LogLikelihood != par.LogLikelihood {
		t.Fatalf("iters/LL differ: seq %d/%v par %d/%v",
			seq.Iters, seq.LogLikelihood, par.Iters, par.LogLikelihood)
	}
	for i := range seq.History {
		if seq.History[i] != par.History[i] {
			t.Fatalf("history[%d]: seq %v != par %v", i, seq.History[i], par.History[i])
		}
	}
	for i := range seq.Model.Components {
		a, b := seq.Model.Components[i], par.Model.Components[i]
		if a.Weight != b.Weight || a.Mean != b.Mean || a.Cov != b.Cov {
			t.Fatalf("component %d differs between workers=1 and workers=8:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestChunkRanges(t *testing.T) {
	cs := chunkRanges(5000, 2048)
	if len(cs) != 3 || cs[0] != (chunk{0, 2048}) || cs[2] != (chunk{4096, 5000}) {
		t.Fatalf("chunkRanges(5000, 2048) = %v", cs)
	}
	if got := chunkRanges(0, 2048); len(got) != 0 {
		t.Fatalf("chunkRanges(0) = %v", got)
	}
	if got := chunkRanges(10, 2048); len(got) != 1 || got[0] != (chunk{0, 10}) {
		t.Fatalf("chunkRanges(10) = %v", got)
	}
}

// responsibilities runs the E-step's per-point helper at x over m's packed
// terms and returns every component's responsibility.
func responsibilities(m *Model, x linalg.Vec2) []float64 {
	p := newPosterior(m.K())
	p.eval(packTerms(m.Components), x.X, x.Y)
	resp := make([]float64, m.K())
	for n, j := range p.idx {
		resp[j] = p.resp[n]
	}
	return resp
}

func TestResponsibilities(t *testing.T) {
	m := twoBlobModel(t)
	resp := responsibilities(m, linalg.V2(0, 0))
	if resp[0] < 0.999 {
		t.Errorf("resp[0] = %v, want ~1 near blob 0", resp[0])
	}
	sum := resp[0] + resp[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("responsibilities sum to %v", sum)
	}
	// Midpoint: symmetric responsibilities.
	resp = responsibilities(m, linalg.V2(5, 5))
	if math.Abs(resp[0]-resp[1]) > 1e-9 {
		t.Errorf("midpoint responsibilities %v not symmetric", resp)
	}
}

// Property: responsibilities always form a probability vector.
func TestResponsibilitiesSimplexProperty(t *testing.T) {
	m := twoBlobModel(t)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		// Clamp magnitude to avoid degenerate all-underflow cases being
		// handled by the uniform fallback (still a valid simplex).
		resp := responsibilities(m, linalg.V2(math.Mod(x, 1e6), math.Mod(y, 1e6)))
		sum := 0.0
		for _, r := range resp {
			if r < 0 || r > 1 || math.IsNaN(r) {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// denseEStep is textbook EM's E-step over one chunk, verbatim and dense:
// every log-density through Component.LogDensity, one exp per term, each
// responsibility normalized by the full sum, and every nonzero one
// accumulated into the moments around its component's mean. It is the
// reference eStep's cut is measured against.
func denseEStep(m *Model, points []linalg.Vec2) *eStepStats {
	k := m.K()
	st := &eStepStats{moments: make([]moments, k)}
	resp := make([]float64, k)
	for _, x := range points {
		maxLog := math.Inf(-1)
		for j := range m.Components {
			resp[j] = m.Components[j].LogDensity(x)
			if resp[j] > maxLog {
				maxLog = resp[j]
			}
		}
		if math.IsInf(maxLog, -1) {
			for j := range resp {
				resp[j] = 1 / float64(k)
			}
			st.ll += maxLog
		} else {
			sum := 0.0
			for j := range resp {
				resp[j] = math.Exp(resp[j] - maxLog)
				sum += resp[j]
			}
			inv := 1 / sum
			for j := range resp {
				resp[j] *= inv
			}
			st.ll += maxLog + math.Log(sum)
		}
		for j, r := range resp {
			if r == 0 {
				continue
			}
			d := x.Sub(m.Components[j].Mean)
			w := d.Scale(r)
			mo := &st.moments[j]
			mo.n += r
			mo.s = mo.s.Add(w)
			mo.ss = mo.ss.Add(linalg.Sym2{XX: w.X * d.X, XY: w.X * d.Y, YY: w.Y * d.Y})
		}
	}
	return st
}

// cutWindowTerms counts the terms the cut changes: those with
// d = ld − max in [expZeroCut, expTinyCut), whose exp is not an exact zero.
func cutWindowTerms(m *Model, points []linalg.Vec2) int {
	n := 0
	for _, x := range points {
		maxLog := math.Inf(-1)
		for j := range m.Components {
			maxLog = math.Max(maxLog, m.Components[j].LogDensity(x))
		}
		for j := range m.Components {
			if d := m.Components[j].LogDensity(x) - maxLog; d >= expZeroCut && d < expTinyCut {
				n++
			}
		}
	}
	return n
}

// statsFields flattens eStepStats for comparison: ll, then each
// component's n, s and ss.
func statsFields(st *eStepStats) []float64 {
	out := []float64{st.ll}
	for _, m := range st.moments {
		out = append(out, m.n, m.s.X, m.s.Y, m.ss.XX, m.ss.XY, m.ss.YY)
	}
	return out
}

// TestEStepMatchesDenseTextbook is the cut's differential test. Where no
// term lands in [expZeroCut, expTinyCut), every dropped exp is an exact
// zero and the statistics must carry the dense E-step's bits. Elsewhere
// each cut term's responsibility is below 2^-54 and its |x − c| is at most
// 1 on the unit square, so every statistic is within N·K·2^-54 of the dense
// one.
func TestEStepMatchesDenseTextbook(t *testing.T) {
	t.Parallel()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	check := func(name string, m *Model, points []linalg.Vec2, exact bool) {
		t.Helper()
		got := statsFields(eStep(packTerms(m.Components), points))
		want := statsFields(denseEStep(m, points))
		bound := float64(len(points)*m.K()) * math.Ldexp(1, -54)
		for i := range want {
			if exact && !same(got[i], want[i]) {
				t.Fatalf("%s: field %d = %v, dense %v (want identical bits)", name, i, got[i], want[i])
			}
			if !exact && !(math.Abs(got[i]-want[i]) <= bound) {
				t.Fatalf("%s: field %d = %v, dense %v: off by %g > N·K·2^-54 = %g",
					name, i, got[i], want[i], math.Abs(got[i]-want[i]), bound)
			}
		}
	}

	// Pairs of overlapping unit Gaussians, the pairs 100 apart: a point
	// near one pair scores both of its members within a few nats of each
	// other and every other component below expZeroCut.
	var comps []Component
	for i := 0; i < 4; i++ {
		c := linalg.V2(float64(100*i), float64(100*(i%2)))
		comps = append(comps,
			Component{Weight: float64(i + 1), Mean: c, Cov: linalg.SymDiag(1, 1)},
			Component{Weight: 1, Mean: c.Add(linalg.V2(1, 0.5)), Cov: linalg.Sym2{XX: 2, XY: 0.3, YY: 0.5}})
	}
	pairs, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var near []linalg.Vec2
	for i := 0; i < 3000; i++ {
		c := pairs.Components[2*rng.Intn(4)].Mean
		near = append(near, c.Add(linalg.V2(rng.NormFloat64(), rng.NormFloat64())))
	}
	if n := cutWindowTerms(pairs, near); n != 0 {
		t.Fatalf("fixture has %d terms in the cut window, want none", n)
	}
	check("no terms in the cut window", pairs, near, true)

	// A point whose terms are all −Inf keeps the uniform 1/K rule and adds
	// −Inf to the log-likelihood; a NaN point has all-NaN terms, so the
	// same rule applies and NaN moments follow.
	check("all -Inf point", pairs, []linalg.Vec2{{X: 1e200, Y: -1e200}}, true)
	check("NaN point", pairs, []linalg.Vec2{{X: math.NaN(), Y: 0.5}}, true)

	// A NaN term next to a finite maximum is never cut: it poisons the
	// point's log-density, as it does the dense sum's.
	terms := packTerms(pairs.Components)
	terms[3].LogCoef = math.NaN()
	p := newPosterior(len(terms))
	if ll := p.eval(terms, 0, 0); !math.IsNaN(ll) || !slices.Contains(p.idx, 3) {
		t.Fatalf("NaN term: log-density %v, survivors %v; want NaN with component 3 kept", ll, p.idx)
	}

	// Tight random mixtures on the unit square leave many terms in the cut
	// window.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 4 << (seed % 4)
		comps := make([]Component, k)
		for j := range comps {
			sx, sy := math.Pow(10, -4+2*rng.Float64()), math.Pow(10, -4+2*rng.Float64())
			comps[j] = Component{
				Weight: rng.Float64() + 0.01,
				Mean:   linalg.V2(rng.Float64(), rng.Float64()),
				Cov:    linalg.Sym2{XX: sx, XY: 0.5 * math.Sqrt(sx*sy) * (2*rng.Float64() - 1), YY: sy},
			}
		}
		m, err := New(comps)
		if err != nil {
			t.Fatal(err)
		}
		points := make([]linalg.Vec2, emChunk)
		for i := range points {
			points[i] = linalg.V2(rng.Float64(), rng.Float64())
		}
		if cutWindowTerms(m, points) == 0 {
			t.Fatalf("seed %d: no terms in the cut window; the fixture no longer tests the cut", seed)
		}
		check(fmt.Sprintf("seed %d K=%d", seed, k), m, points, false)
	}
}

// clusteredPoints draws 500–2,000 points from 1–12 Gaussian clusters with
// standard deviations from 0.001 to 0.2, centred in the unit square.
func clusteredPoints(rng *rand.Rand) []linalg.Vec2 {
	type cluster struct {
		c      linalg.Vec2
		sx, sy float64
	}
	cs := make([]cluster, 1+rng.Intn(12))
	for i := range cs {
		cs[i] = cluster{
			c:  linalg.V2(rng.Float64(), rng.Float64()),
			sx: math.Pow(10, -3+math.Log10(200)*rng.Float64()),
			sy: math.Pow(10, -3+math.Log10(200)*rng.Float64()),
		}
	}
	pts := make([]linalg.Vec2, 500+rng.Intn(1501))
	for i := range pts {
		c := cs[rng.Intn(len(cs))]
		pts[i] = c.c.Add(linalg.V2(c.sx*rng.NormFloat64(), c.sy*rng.NormFloat64()))
	}
	return pts
}

// TestFitLikelihoodNeverFalls is EM's monotonicity property over random
// data, seeds and K: the mean log-likelihood of the model entering each
// iteration never falls below the previous one by more than round-off.
// CovReg is 1e-12 because the default 1e-6 floor is itself a departure
// from the likelihood EM climbs: on a collapsing component it can lower the
// log-likelihood, which is not what this property is about.
func TestFitLikelihoodNeverFalls(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 8, 32, 64} {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			samples := samplesFromPoints(clusteredPoints(rng))
			res, err := Fit(samples, TrainConfig{K: k, MaxIters: 20, Tol: 1e-14, CovReg: 1e-12, Seed: seed})
			if err != nil {
				t.Fatalf("K=%d seed %d: %v", k, seed, err)
			}
			for i := 1; i < len(res.History); i++ {
				prev, cur := res.History[i-1], res.History[i]
				if cur < prev-1e-10*(1+math.Abs(prev)) {
					t.Errorf("K=%d seed %d: mean LL fell at iteration %d: %v -> %v", k, seed, i, prev, cur)
				}
			}
		}
	}
}

// parsecTrainingSet is drift-refit's training shape: serve's transform
// (len_access_shot 2000) over 200,000 parsec accesses, normalized.
func parsecTrainingSet() ([]trace.Sample, error) {
	gen, err := workload.ByName("parsec")
	if err != nil {
		return nil, err
	}
	tcfg := trace.DefaultTransformConfig()
	tcfg.LenAccessShot = 2000
	samples := trace.Preprocess(gen.Generate(200_000, 1), tcfg)
	return trace.FitNormalizer(samples).ApplyAll(samples), nil
}

// benchmarkFit times whole fits and reports them per EM iteration
// (k-means++ initialization amortized in). exps/point counts the terms an
// E-step at the fitted model evaluates an exp for, averaged over every
// sample (the fit trains on a uniform subsample of them).
func benchmarkFit(b *testing.B, samples []trace.Sample, cfg TrainConfig) {
	var res *TrainResult
	for b.Loop() {
		var err error
		if res, err = Fit(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Iters), "ns/iter")
	terms := packTerms(res.Model.Components)
	p := newPosterior(len(terms))
	exps := 0
	for _, s := range samples {
		p.eval(terms, s.Page, s.Timestamp)
		exps += len(p.idx)
	}
	b.ReportMetric(float64(exps)/float64(len(samples)), "exps/point")
}

// BenchmarkFitK256 fits paper-dlrm's serving model: the fitDLRM training
// set and configuration (10,000 of its 140,000 samples, 8 iterations).
func BenchmarkFitK256(b *testing.B) {
	samples, err := dlrmTrainingSet()
	if err != nil {
		b.Fatal(err)
	}
	benchmarkFit(b, samples, dlrmTrainConfig(256))
}

// BenchmarkFitK64 fits drift-refit's model shape: K = 64, 20 iterations on
// 20,000 of 140,000 parsec samples.
func BenchmarkFitK64(b *testing.B) {
	samples, err := parsecTrainingSet()
	if err != nil {
		b.Fatal(err)
	}
	benchmarkFit(b, samples, TrainConfig{K: 64, Seed: 1, MaxIters: 20, MaxSamples: 20_000, Tol: 1e-12, Workers: 1})
}
