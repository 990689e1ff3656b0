package gmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// The sparse log-sum-exp is exact only if math.Exp behaves as the cutoffs
// assume on the platform running it. TestExpCutoffs checks that directly.
func TestExpCutoffs(t *testing.T) {
	t.Parallel()
	if got := math.Exp(0); got != 1 {
		t.Fatalf("math.Exp(0) = %v, want exactly 1", got)
	}
	// Below expZeroCut, math.Exp is exactly +0: a dense sweep down to -800,
	// then a geometric one out to the most negative float64, then -Inf.
	zero := func(x float64) {
		if got := math.Exp(x); math.Float64bits(got) != 0 {
			t.Fatalf("math.Exp(%v) = %v, want exactly +0", x, got)
		}
	}
	for x := math.Nextafter(expZeroCut, math.Inf(-1)); x > -800; x -= 1.0 / 4096 {
		zero(x)
	}
	for x := -800.0; !math.IsInf(x, -1); x *= 1.01 {
		zero(x)
	}
	zero(-math.MaxFloat64)
	zero(math.Inf(-1))
	// Below expTinyCut, math.Exp is under 2^-53, half an ulp of 1, so a sum
	// of at least 1 absorbs it unchanged.
	halfUlp := math.Ldexp(1, -53)
	for x := math.Nextafter(expTinyCut, math.Inf(-1)); x >= expZeroCut; x -= 1.0 / 4096 {
		if got := math.Exp(x); !(got < halfUlp) {
			t.Fatalf("math.Exp(%v) = %v, want < 2^-53", x, got)
		}
	}
	if got := 1 + math.Exp(math.Nextafter(expTinyCut, math.Inf(-1))); got != 1 {
		t.Fatalf("1 + exp(just below expTinyCut) = %v, want 1", got)
	}
}

// denseLogSumExp is the dense max-then-sum log-sum-exp the scoring paths
// used before the sparse one, verbatim but over a plain slice: the reference
// the sparse form must match bit for bit.
func denseLogSumExp(ld []float64) float64 {
	maxLog := math.Inf(-1)
	for c := range ld {
		if v := ld[c]; v > maxLog {
			maxLog = v
		}
	}
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for c := range ld {
		sum += math.Exp(ld[c] - maxLog)
	}
	return maxLog + math.Log(sum)
}

// denseLogScoreBlock is the parent logScoreBlock, verbatim but for the
// receiver: the strided max pass over the finished block buffer, then the
// dense sum.
func denseLogScoreBlock(b *soa, dst, xs, ys, ld []float64) {
	k := len(b.logCoef)
	n := len(xs)
	for c := 0; c < k; c++ {
		b.density(ld[c*scoreBlock:c*scoreBlock+n], xs, ys,
			b.meanX[c], b.meanY[c],
			b.pxx[c], b.pxy[c], b.pyy[c], b.logCoef[c])
	}
	for i := 0; i < n; i++ {
		maxLog := math.Inf(-1)
		for c := 0; c < k; c++ {
			if v := ld[c*scoreBlock+i]; v > maxLog {
				maxLog = v
			}
		}
		if math.IsInf(maxLog, -1) {
			dst[i] = maxLog
			continue
		}
		sum := 0.0
		for c := 0; c < k; c++ {
			sum += math.Exp(ld[c*scoreBlock+i] - maxLog)
		}
		dst[i] = maxLog + math.Log(sum)
	}
}

// sameBits reports bit equality, the contract every scoring path keeps.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomLSEModel draws a model that drives terms across both cutoffs:
// K in [1, 300], per-axis variances log-uniform in [1e-6, 1e-1], some
// zero-weight (-Inf log-coefficient) components, and duplicated components
// whose terms tie at the maximum.
func randomLSEModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	k := 1 + rng.Intn(300)
	comps := make([]Component, k)
	for i := range comps {
		if i > 0 && rng.Intn(8) == 0 {
			comps[i] = comps[rng.Intn(i)] // a tie with an earlier component
			continue
		}
		vx := math.Pow(10, -1-5*rng.Float64())
		vy := math.Pow(10, -1-5*rng.Float64())
		rho := 0.9 * (2*rng.Float64() - 1)
		comps[i] = Component{
			Weight: rng.Float64(),
			Mean:   linalg.V2(rng.Float64(), rng.Float64()),
			Cov:    linalg.Sym2{XX: vx, XY: rho * math.Sqrt(vx*vy), YY: vy},
		}
		if rng.Intn(10) == 0 {
			comps[i].Weight = 0
		}
	}
	comps[rng.Intn(k)].Weight = 1 // at least one live component
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lsePoints are the points the differential test scores: inside the unit
// square (near component mass and between it), far outside it, exactly on
// component means (where duplicated components tie), and non-finite ones
// whose terms are all -Inf or NaN.
func lsePoints(rng *rand.Rand, m *Model) (xs, ys []float64) {
	add := func(x, y float64) { xs, ys = append(xs, x), append(ys, y) }
	for i := 0; i < 40; i++ {
		add(rng.Float64(), rng.Float64())
	}
	for i := 0; i < 8; i++ {
		add(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	for i := 0; i < 8; i++ {
		c := m.Components[rng.Intn(m.K())].Mean
		add(c.X, c.Y)
	}
	add(1e200, -1e200)                 // quadratic forms overflow: every term -Inf
	add(math.Inf(1), 0.5)              // Inf·0 in the cross term: NaN terms
	add(math.NaN(), 0.5)               // every term NaN
	add(0.5, math.Inf(-1))             // -Inf or NaN terms
	add(1e-300, 1e-300)                // near the origin corner
	add(math.Nextafter(1, 2), 1+1e-15) // just outside the square
	return xs, ys
}

// TestSparseLogSumExpMatchesDense pins every scoring path — float and q16,
// block and scalar — to the dense reference bit for bit, on random models
// whose terms straddle both cutoffs.
func TestSparseLogSumExpMatchesDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	var skipped, total int
	for mi := 0; mi < 150; mi++ {
		m := randomLSEModel(t, rng)
		q, _ := Quantize(m) // saturation changes the densities, not the contract
		xs, ys := lsePoints(rng, m)
		zero, tiny, evaluated := termCounts(m, xs, ys)
		skipped += zero + tiny
		total += zero + tiny + evaluated
		for _, path := range []struct {
			name   string
			b      *soa
			scalar func(x, y float64) float64
			term   func(c int, x, y float64) float64
			batch  func(pages, times, dst []float64, s *Scratch)
		}{
			{"float", &m.soa, func(x, y float64) float64 { return m.LogScore(linalg.V2(x, y)) },
				func(c int, x, y float64) float64 { return m.Components[c].LogDensity(linalg.V2(x, y)) },
				m.ScorePageTimeBatchScratch},
			{"q16", &q.dq, func(x, y float64) float64 { return q.LogScore(linalg.V2(x, y)) },
				q.logDensity, q.ScorePageTimeBatchScratch},
		} {
			got := blockLogScores(path.b, xs, ys)
			want := make([]float64, len(xs))
			var s Scratch
			ld := s.block(m.K())
			for start := 0; start < len(xs); start += scoreBlock {
				end := min(start+scoreBlock, len(xs))
				denseLogScoreBlock(path.b, want[start:end], xs[start:end], ys[start:end], ld)
			}
			terms := make([]float64, m.K())
			for i := range xs {
				for c := range terms {
					terms[c] = path.term(c, xs[i], ys[i])
				}
				ref := denseLogSumExp(terms)
				if !sameBits(want[i], ref) {
					t.Fatalf("model %d %s point (%v, %v): dense block %v != dense scalar %v", mi, path.name, xs[i], ys[i], want[i], ref)
				}
				if !sameBits(got[i], ref) {
					t.Fatalf("model %d (K=%d) %s point (%v, %v): sparse block %v != dense %v", mi, m.K(), path.name, xs[i], ys[i], got[i], ref)
				}
				if sc := path.scalar(xs[i], ys[i]); !sameBits(sc, ref) {
					t.Fatalf("model %d (K=%d) %s point (%v, %v): sparse scalar %v != dense %v", mi, m.K(), path.name, xs[i], ys[i], sc, ref)
				}
			}
			dst := make([]float64, len(xs))
			path.batch(xs, ys, dst, &s)
			for i := range xs {
				if want := math.Exp(got[i]); !sameBits(dst[i], want) {
					t.Fatalf("model %d %s point %d: ScorePageTimeBatchScratch %v != exp(log score) %v", mi, path.name, i, dst[i], want)
				}
			}
		}
	}
	// The models must actually exercise the skip, or the test proves nothing.
	if skipped*4 < total {
		t.Fatalf("only %d of %d terms skipped; the random models no longer reach the cutoffs", skipped, total)
	}
}

// checkColumn compares logSumExp on one point's column, laid out at the
// block buffer's stride, with the dense reference bit for bit.
func checkColumn(t *testing.T, col []float64) {
	t.Helper()
	maxLog := math.Inf(-1)
	for _, v := range col {
		if v > maxLog {
			maxLog = v
		}
	}
	ld := make([]float64, len(col)*scoreBlock)
	for c, v := range col {
		ld[c*scoreBlock] = v
	}
	want := denseLogSumExp(col)
	if got := logSumExp(ld, maxLog); !sameBits(got, want) {
		t.Errorf("column %v: sparse %v (%#x) != dense %v (%#x)", col, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestLogSumExpEdgeCases pins the contract's corner cases on hand-built
// columns: all -Inf, NaN terms before and after the maximum, an all-NaN
// column (the dense scan finds no maximum, so -Inf), ties at the maximum,
// +Inf terms, and a signed-zero maximum.
func TestLogSumExpEdgeCases(t *testing.T) {
	t.Parallel()
	inf, nan := math.Inf(1), math.NaN()
	for _, col := range [][]float64{
		{math.Inf(-1)},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		{nan, 0, -800},
		{-800, 0, nan},
		{nan, nan},
		{nan, math.Inf(-1)},
		{-3, -3, -3, -40, -800},
		{-40, -40, -3, -3, -800, -3},
		{-0.5, -0.5, -38, -37, -745.5, -746.5, 0},
		{inf, 0, -1},
		{0, inf, inf},
		{math.Copysign(0, -1), 0, -40},
		{0, math.Copysign(0, -1), -40},
		{-1e308, -math.MaxFloat64},
		{math.MaxFloat64, -math.MaxFloat64, 0},
	} {
		checkColumn(t, col)
	}
}

// FuzzLogSumExp checks the sparse log-sum-exp against the dense reference on
// fuzzed columns. Each byte of raw is one term, top - b·scale, except that
// bytes 253, 254 and 255 are +Inf, -Inf and NaN; repeated bytes tie, and a
// scale near 3 puts terms on both sides of both cutoffs.
func FuzzLogSumExp(f *testing.F) {
	f.Add([]byte{0, 10, 200, 252, 13, 0}, 0.0, 3.0)
	f.Add([]byte{5, 0, 0, 251, 249, 250}, -2.5, 0.15)
	f.Add([]byte{255, 0, 12, 254, 253}, 1.0, 3.0)
	f.Add([]byte{254, 254, 254}, 0.0, 1.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 700.0, 4.5)
	f.Add([]byte{250, 0}, -1e308, 1e306)
	// Terms just below expTinyCut before the maximum, from a zero sum and
	// from a sum near 0.3: they are not negligible there, and together
	// they move the final sum by a few ulps.
	f.Add([]byte{188, 188, 188, 188, 188, 188, 188, 188, 188, 188, 0}, 0.0, 0.2)
	f.Add([]byte{6, 188, 188, 188, 188, 188, 188, 188, 188, 188, 188, 0}, 0.0, 0.2)
	f.Fuzz(func(t *testing.T, raw []byte, top, scale float64) {
		if len(raw) == 0 || len(raw) > 512 {
			t.Skip()
		}
		col := make([]float64, len(raw))
		for i, b := range raw {
			switch b {
			case 253:
				col[i] = math.Inf(1)
			case 254:
				col[i] = math.Inf(-1)
			case 255:
				col[i] = math.NaN()
			default:
				col[i] = top - float64(b)*scale
			}
		}
		checkColumn(t, col)
	})
}
