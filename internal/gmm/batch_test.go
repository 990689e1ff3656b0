package gmm

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// batchTestModel builds a mixture spread over the unit square. Its
// covariances keep every point of the unit square within a few standard
// deviations of every component, so none of its terms is negligible: it
// exercises the kernel with every component a candidate, not the grid's
// pruning or the skipped exps (the fitted benchmarks, grid_test.go and
// lse_test.go do that).
func batchTestModel(t testing.TB, k int) *Model {
	t.Helper()
	comps := make([]Component, k)
	for i := range comps {
		comps[i] = Component{
			Weight: float64(i + 1),
			Mean:   linalg.V2(float64(i)/float64(k), float64(i%7)/7),
			Cov:    linalg.Sym2{XX: 0.02, XY: 0.005, YY: 0.03},
		}
	}
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// candidateLogScores runs the candidate kernel over xs, ys point by point,
// the way scorePageTimes does, but keeps the log domain.
func candidateLogScores(b *bundle, xs, ys []float64) []float64 {
	var s Scratch
	ld := s.terms(len(b.terms))
	dst := make([]float64, len(xs))
	for i := range xs {
		dst[i] = b.logScore(xs[i], ys[i], ld)
	}
	return dst
}

func TestLogScoreBatchMatchesScalar(t *testing.T) {
	t.Parallel()
	m := batchTestModel(t, 17)
	rng := rand.New(rand.NewSource(1))
	// Spread points well outside the training range too, where densities
	// underflow and the log-sum-exp guard matters.
	n := 197
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*40-20, rng.Float64()*40-20
	}
	dst := candidateLogScores(&m.bundle, xs, ys)
	for i := range xs {
		want := m.LogScore(linalg.V2(xs[i], ys[i]))
		if math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("point %d: batch %v != scalar %v (must be bit-identical)", i, dst[i], want)
		}
	}
}

func TestScorePageTimeBatchMatchesScalar(t *testing.T) {
	t.Parallel()
	m := batchTestModel(t, 5)
	rng := rand.New(rand.NewSource(2))
	n := 67
	pages := make([]float64, n)
	times := make([]float64, n)
	dst := make([]float64, n)
	for i := range pages {
		pages[i] = rng.Float64()
		times[i] = rng.Float64()
	}
	var s Scratch
	m.ScorePageTimeBatchScratch(pages, times, dst, &s)
	for i := range pages {
		if want := m.ScorePageTime(pages[i], times[i]); dst[i] != want {
			t.Fatalf("point %d: batch %v != scalar %v", i, dst[i], want)
		}
	}
}

func TestLogScoreBatchEmpty(t *testing.T) {
	t.Parallel()
	m := batchTestModel(t, 3)
	q, _ := Quantize(m)
	var s Scratch
	m.ScorePageTimeBatchScratch(nil, nil, nil, &s) // must not panic
	q.ScorePageTimeBatchScratch(nil, nil, nil, &s)
}

// TestBatchScratchReuseAcrossK: one Scratch serves models of different K in
// turn (the serving path keeps its per-partition scratch across refits that
// may change K). A term buffer grown at a larger K and reused at a smaller
// one must score exactly like a fresh scratch.
func TestBatchScratchReuseAcrossK(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	n := 135
	pages := make([]float64, n)
	times := make([]float64, n)
	for i := range pages {
		pages[i], times[i] = rng.Float64(), rng.Float64()
	}
	var shared Scratch
	for _, k := range []int{9, 40, 3, 40} {
		m := batchTestModel(t, k)
		var fresh Scratch
		a, b := make([]float64, n), make([]float64, n)
		m.ScorePageTimeBatchScratch(pages, times, a, &fresh)
		m.ScorePageTimeBatchScratch(pages, times, b, &shared)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("K=%d point %d: fresh scratch %v != reused scratch %v", k, i, a[i], b[i])
			}
		}
	}
}

// TestBatchScorerAllocs pins the float batch kernel at zero steady-state
// allocations, the property the serving hot path relies on.
func TestBatchScorerAllocs(t *testing.T) {
	m := batchTestModel(t, 32)
	rng := rand.New(rand.NewSource(7))
	n := 137
	pages := make([]float64, n)
	times := make([]float64, n)
	dst := make([]float64, n)
	for i := range pages {
		pages[i], times[i] = rng.Float64(), rng.Float64()
	}
	var s Scratch
	m.ScorePageTimeBatchScratch(pages, times, dst, &s) // grow the scratch once
	if a := testing.AllocsPerRun(20, func() { m.ScorePageTimeBatchScratch(pages, times, dst, &s) }); a != 0 {
		t.Errorf("ScorePageTimeBatchScratch allocates %v per run at steady state", a)
	}
	if a := testing.AllocsPerRun(20, func() { m.LogScore(linalg.V2(0.3, 0.4)) }); a != 0 {
		t.Errorf("LogScore allocates %v per run", a)
	}
}

func BenchmarkScoreScalar(b *testing.B) {
	m := batchTestModel(b, 256)
	rng := rand.New(rand.NewSource(3))
	xs := make([]linalg.Vec2, 4096)
	for i := range xs {
		xs[i] = linalg.V2(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			m.LogScore(x)
		}
	}
}

func BenchmarkScoreBatch(b *testing.B) {
	m := batchTestModel(b, 256)
	rng := rand.New(rand.NewSource(3))
	pages := make([]float64, 4096)
	times := make([]float64, 4096)
	dst := make([]float64, 4096)
	for i := range pages {
		pages[i], times[i] = rng.Float64(), rng.Float64()
	}
	var s Scratch
	m.ScorePageTimeBatchScratch(pages, times, dst, &s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScorePageTimeBatchScratch(pages, times, dst, &s)
	}
}

// BenchmarkScoreBatchQ16 is the quantized counterpart of BenchmarkScoreBatch:
// the same batch size through the Q16.16 weight-buffer datapath (the
// dequantized bundle with its folded precisions), the form the serve path
// dispatches to.
func BenchmarkScoreBatchQ16(b *testing.B) {
	m := batchTestModel(b, 256)
	q, rep := Quantize(m)
	if rep.Saturated != 0 {
		b.Fatalf("%d constants saturate", rep.Saturated)
	}
	rng := rand.New(rand.NewSource(3))
	pages := make([]float64, 4096)
	times := make([]float64, 4096)
	dst := make([]float64, 4096)
	for i := range pages {
		pages[i] = rng.Float64()
		times[i] = rng.Float64()
	}
	var s Scratch
	q.ScorePageTimeBatchScratch(pages, times, dst, &s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScorePageTimeBatchScratch(pages, times, dst, &s)
	}
}

// fittedDLRM is the paper-dlrm serving model: K components fitted, with
// serve's spec defaults for that workload (len_access_shot 2000, 8 EM
// iterations on at most 10,000 samples), on 200,000 warm-up dlrm accesses.
// pages and times are 4,096 of the normalized warm-up points the model was
// fitted on, strided across the whole trace.
type fittedDLRM struct {
	m            *Model
	pages, times []float64
}

// dlrmTrainingSet is paper-dlrm's training set: serve's transform
// (len_access_shot 2000) over 200,000 warm-up dlrm accesses, normalized.
func dlrmTrainingSet() ([]trace.Sample, error) {
	gen, err := workload.ByName("dlrm")
	if err != nil {
		return nil, err
	}
	tcfg := trace.DefaultTransformConfig()
	tcfg.LenAccessShot = 2000
	samples := trace.Preprocess(gen.Generate(200_000, 1), tcfg)
	return trace.FitNormalizer(samples).ApplyAll(samples), nil
}

// dlrmTrainConfig is paper-dlrm's training configuration at K components.
func dlrmTrainConfig(k int) TrainConfig {
	return TrainConfig{K: k, Seed: 1, MaxIters: 8, MaxSamples: 10_000, Tol: 1e-12, Workers: 1}
}

func fitDLRM(k int) (fittedDLRM, error) {
	normed, err := dlrmTrainingSet()
	if err != nil {
		return fittedDLRM{}, err
	}
	res, err := Fit(normed, dlrmTrainConfig(k))
	if err != nil {
		return fittedDLRM{}, err
	}
	f := fittedDLRM{m: res.Model, pages: make([]float64, 4096), times: make([]float64, 4096)}
	for i := range f.pages {
		sm := normed[i*len(normed)/len(f.pages)]
		f.pages[i], f.times[i] = sm.Page, sm.Timestamp
	}
	return f, nil
}

var (
	fittedK8   = sync.OnceValues(func() (fittedDLRM, error) { return fitDLRM(8) })
	fittedK256 = sync.OnceValues(func() (fittedDLRM, error) { return fitDLRM(256) })
)

// serveBlock is the points per scoring call on paper-dlrm's serve path: a
// 512-request batch spread over 16 partitions, each scored in one call.
const serveBlock = 32

// termCounts classifies every term of every point as the sparse
// log-sum-exp meets it: exact zeros (d < expZeroCut), other negligible terms,
// and terms whose exp is evaluated.
func termCounts(m *Model, pages, times []float64) (zero, tiny, evaluated int) {
	ld := make([]float64, m.K())
	for i := range pages {
		maxLog := math.Inf(-1)
		for c := range ld {
			ld[c] = m.Components[c].LogDensity(linalg.V2(pages[i], times[i]))
			if ld[c] > maxLog {
				maxLog = ld[c]
			}
		}
		sum := 0.0
		for _, v := range ld {
			switch d := v - maxLog; {
			case d < expZeroCut:
				zero++
			case negligible(d, sum):
				tiny++
			default:
				evaluated++
				sum += math.Exp(d)
			}
		}
	}
	return zero, tiny, evaluated
}

// benchmarkScoreFitted scores the fitted model's points in serve-sized
// calls. Unlike batchTestModel, a fitted model's tight components leave many
// terms negligible far from their mass, which is the case the candidate grid
// prunes and the sparse log-sum-exp skips; cands/point, exps/point and
// zeros/point report how many.
func benchmarkScoreFitted(b *testing.B, fitted func() (fittedDLRM, error)) {
	f, err := fitted()
	if err != nil {
		b.Fatal(err)
	}
	zero, _, evaluated := termCounts(f.m, f.pages, f.times)
	dst := make([]float64, len(f.pages))
	var s Scratch
	for b.Loop() {
		for lo := 0; lo < len(f.pages); lo += serveBlock {
			hi := min(lo+serveBlock, len(f.pages))
			f.m.ScorePageTimeBatchScratch(f.pages[lo:hi], f.times[lo:hi], dst[lo:hi], &s)
		}
	}
	n := float64(len(f.pages))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/point")
	b.ReportMetric(candidatesPerPoint(&f.m.bundle, f.pages, f.times), "cands/point")
	b.ReportMetric(float64(evaluated)/n, "exps/point")
	b.ReportMetric(float64(zero)/n, "zeros/point")
}

func BenchmarkScoreFittedK8(b *testing.B)   { benchmarkScoreFitted(b, fittedK8) }
func BenchmarkScoreFittedK256(b *testing.B) { benchmarkScoreFitted(b, fittedK256) }
