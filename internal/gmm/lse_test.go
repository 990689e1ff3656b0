package gmm

import (
	"fmt"
	"math"
	"math/bits"
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

// sameBits reports bit equality, the contract every scoring path keeps.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomLSEModel draws a model that drives terms across both cutoffs:
// K in [1, 300], per-axis variances log-uniform over the given number of
// decades below 1e-1, some zero-weight (-Inf log-coefficient) components,
// and duplicated components whose terms tie at the maximum.
func randomLSEModel(t *testing.T, rng *rand.Rand, decades float64) *Model {
	t.Helper()
	k := 1 + rng.Intn(300)
	comps := make([]Component, k)
	for i := range comps {
		if i > 0 && rng.Intn(8) == 0 {
			comps[i] = comps[rng.Intn(i)] // a tie with an earlier component
			continue
		}
		vx := math.Pow(10, -1-decades*rng.Float64())
		vy := math.Pow(10, -1-decades*rng.Float64())
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
// component means (where duplicated components tie), non-finite ones whose
// terms are all -Inf or NaN, and the grid's edge cases.
func lsePoints(rng *rand.Rand, means []linalg.Vec2) (xs, ys []float64) {
	add := func(x, y float64) { xs, ys = append(xs, x), append(ys, y) }
	for i := 0; i < 40; i++ {
		add(rng.Float64(), rng.Float64())
	}
	for i := 0; i < 8; i++ {
		add(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	for i := 0; i < 8; i++ {
		c := means[rng.Intn(len(means))]
		add(c.X, c.Y)
	}
	add(1e200, -1e200)                 // quadratic forms overflow: every term -Inf
	add(math.Inf(1), 0.5)              // Inf·0 in the cross term: NaN terms
	add(math.NaN(), 0.5)               // every term NaN
	add(0.5, math.Inf(-1))             // -Inf or NaN terms
	add(1e-300, 1e-300)                // near the origin corner
	add(math.Nextafter(1, 2), 1+1e-15) // just outside the square
	gx, gy := gridEdgePoints()
	xs, ys = append(xs, gx...), append(ys, gy...)
	return xs, ys
}

// gridEdgePoints are the candidate grid's edge cases: points on page-cell
// and time-cell edges and one ulp below them, the square's far edges at
// 1 - ulp and exactly 1, signed zeros, points just outside the square and
// non-finite coordinates.
func gridEdgePoints() (xs, ys []float64) {
	add := func(x, y float64) { xs, ys = append(xs, x), append(ys, y) }
	below := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	for k := 0; k <= gridPages; k++ {
		x, y := float64(k)/gridPages, float64(k%(gridTimes+1))/gridTimes
		add(x, y)
		add(below(x), below(y))
	}
	for k := 0; k <= gridTimes; k++ {
		y := float64(k) / gridTimes
		add(0.37, y)
		add(0.37, below(y))
	}
	one, negZero := below(1), math.Copysign(0, -1)
	add(one, 0.5)
	add(0.5, one)
	add(one, one)
	add(1, 0.5)
	add(0.5, 1)
	add(1, 1)
	add(negZero, 0.3)
	add(0.3, negZero)
	add(negZero, negZero)
	add(-math.SmallestNonzeroFloat64, 0.5)
	add(0.5, -math.SmallestNonzeroFloat64)
	add(-0.01, 0.5)
	add(0.5, 1.01)
	add(math.Inf(-1), 0.5)
	add(0.5, math.NaN())
	add(math.NaN(), math.NaN())
	add(math.Inf(1), math.Inf(1))
	return xs, ys
}

// scorePath is one bundle with its references: the per-point LogScore, the
// per-component term it sums, and the batch entry point.
type scorePath struct {
	name   string
	b      *bundle
	scalar func(x, y float64) float64
	term   func(c int, x, y float64) float64
	batch  func(pages, times, dst []float64, s *Scratch)
}

func floatPath(m *Model) scorePath {
	return scorePath{"float", &m.bundle,
		func(x, y float64) float64 { return m.LogScore(linalg.V2(x, y)) },
		func(c int, x, y float64) float64 { return m.Components[c].LogDensity(linalg.V2(x, y)) },
		m.ScorePageTimeBatchScratch}
}

func q16Path(q *QuantizedModel) scorePath {
	return scorePath{"q16", &q.dq,
		func(x, y float64) float64 { return q.LogScore(linalg.V2(x, y)) },
		q.logDensity, q.ScorePageTimeBatchScratch}
}

// checkPath pins one path's candidate kernel, its scalar LogScore and its
// batch entry point to the dense reference over every component, bit for bit.
func checkPath(t *testing.T, label string, p scorePath, xs, ys []float64) {
	t.Helper()
	k := len(p.b.terms)
	got := candidateLogScores(p.b, xs, ys)
	terms := make([]float64, k)
	for i := range xs {
		for c := range terms {
			terms[c] = p.term(c, xs[i], ys[i])
		}
		ref := denseLogSumExp(terms)
		if !sameBits(got[i], ref) {
			t.Fatalf("%s (K=%d) %s point (%v, %v): candidate kernel %v != dense %v", label, k, p.name, xs[i], ys[i], got[i], ref)
		}
		if sc := p.scalar(xs[i], ys[i]); !sameBits(sc, ref) {
			t.Fatalf("%s (K=%d) %s point (%v, %v): sparse scalar %v != dense %v", label, k, p.name, xs[i], ys[i], sc, ref)
		}
	}
	dst := make([]float64, len(xs))
	var s Scratch
	p.batch(xs, ys, dst, &s)
	for i := range xs {
		if want := math.Exp(got[i]); !sameBits(dst[i], want) {
			t.Fatalf("%s %s point %d: ScorePageTimeBatchScratch %v != exp(log score) %v", label, p.name, i, dst[i], want)
		}
	}
}

// prunedTerms counts the terms the candidate grid drops over the points.
func prunedTerms(b *bundle, xs, ys []float64) int {
	pruned := 0
	for i := range xs {
		pruned += len(b.terms)
		for _, w := range b.grid.candidates(xs[i], ys[i]) {
			pruned -= bits.OnesCount64(w)
		}
	}
	return pruned
}

// TestSparseLogSumExpMatchesDense pins every scoring path — float and q16,
// candidate kernel, scalar and batch — to the dense reference bit for bit,
// on random models whose terms straddle both cutoffs, on unsaturated q16
// models, and on a q16 model with non-concave terms.
func TestSparseLogSumExpMatchesDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	var skipped, total, pruned int
	for mi := 0; mi < 150; mi++ {
		m := randomLSEModel(t, rng, 5)
		q, _ := Quantize(m) // saturation changes the densities, not the contract
		xs, ys := lsePoints(rng, modelMeans(m))
		zero, tiny, evaluated := termCounts(m, xs, ys)
		skipped += zero + tiny
		total += zero + tiny + evaluated
		pruned += prunedTerms(&m.bundle, xs, ys)
		label := fmt.Sprintf("model %d", mi)
		checkPath(t, label, floatPath(m), xs, ys)
		checkPath(t, label, q16Path(q), xs, ys)
	}
	// The models must actually exercise the skip and the grid, or the test
	// proves nothing.
	if skipped*4 < total {
		t.Fatalf("only %d of %d terms skipped; the random models no longer reach the cutoffs", skipped, total)
	}
	if pruned*5 < total {
		t.Fatalf("the grid pruned only %d of %d float terms, want at least 20%%", pruned, total)
	}
	t.Logf("float: %d of %d terms skipped, %d pruned by the grid", skipped, total, pruned)
	// Variances of at least 1e-4 keep every folded precision entry inside
	// Q16.16, so these models exercise unsaturated q16 bundles.
	var qPruned, qTotal int
	for mi := 0; mi < 40; mi++ {
		m := randomLSEModel(t, rng, 3)
		q, rep := Quantize(m)
		if rep.Saturated != 0 {
			t.Fatalf("unsaturated model %d: %d constants saturate", mi, rep.Saturated)
		}
		xs, ys := lsePoints(rng, modelMeans(m))
		qPruned += prunedTerms(&q.dq, xs, ys)
		qTotal += q.K() * len(xs)
		checkPath(t, fmt.Sprintf("unsaturated model %d", mi), q16Path(q), xs, ys)
	}
	if qPruned == 0 {
		t.Fatalf("the grid pruned none of %d unsaturated q16 terms", qTotal)
	}
	t.Logf("unsaturated q16: %d of %d terms pruned by the grid", qPruned, qTotal)
	q := nonConcaveQ16()
	means := make([]linalg.Vec2, q.K())
	for i := range means {
		means[i] = linalg.V2(fromQ(q.MeanX[i]), fromQ(q.MeanY[i]))
	}
	xs, ys := lsePoints(rng, means)
	checkPath(t, "non-concave", q16Path(q), xs, ys)
	nonConcave := uint64(1<<1 | 1<<3 | 1<<4 | 1<<6 | 1<<7)
	ncPruned := 0
	for cell := 0; cell < gridCells; cell++ {
		mask := q.dq.grid.masks[cell]
		if mask&nonConcave != nonConcave {
			t.Fatalf("cell %d mask %#x drops a non-concave component", cell, mask)
		}
		ncPruned += q.K() - bits.OnesCount64(mask)
	}
	if ncPruned == 0 {
		t.Fatal("the grid pruned nothing on the non-concave model")
	}
}

func modelMeans(m *Model) []linalg.Vec2 {
	means := make([]linalg.Vec2, m.K())
	for i := range m.Components {
		means[i] = m.Components[i].Mean
	}
	return means
}

// nonConcaveQ16 is a hand-built q16 model whose folded precision is not
// negative definite in five of its components (1: convex along the page
// axis, 3: indefinite, 4: singular, 6: flat, 7: convex, and far from an
// exact zero within a cell of its mean), next to tight concave ones and a
// broad one that let the grid prune elsewhere. Its non-concave terms must
// stay candidates in every cell.
func nonConcaveQ16() *QuantizedModel {
	q := &QuantizedModel{}
	add := func(mx, my, pxx, pxy, pyy, lc float64) {
		q.MeanX, q.MeanY = append(q.MeanX, toQ(mx)), append(q.MeanY, toQ(my))
		q.PrecXX, q.PrecXY, q.PrecYY = append(q.PrecXX, toQ(pxx)), append(q.PrecXY, toQ(pxy)), append(q.PrecYY, toQ(pyy))
		q.LogCoef = append(q.LogCoef, toQ(lc))
	}
	add(0.1, 0.1, -20000, 0, -20000, 3)
	add(0.5, 0.5, 2, 0, -3, -900) // convex along the page axis
	add(0.9, 0.2, -20000, 100, -20000, 3)
	add(0.3, 0.8, -5, 40, -5, -1200) // indefinite: AC < B²
	add(0.7, 0.7, -4, 4, -4, -2000)  // singular: AC = B²
	add(0.2, 0.9, -30000, -2000, -25000, 2)
	add(0.6, 0.1, 0, 0, 0, -800) // flat
	add(0.45, 0.55, 30000, 0, 30000, -1000)
	add(0.5, 0.5, -1, 0, -1, 0)
	q.rebuildDQ()
	return q
}

// checkColumn compares logSumExp on one point's terms with the dense
// reference bit for bit.
func checkColumn(t *testing.T, col []float64) {
	t.Helper()
	maxLog := math.Inf(-1)
	for _, v := range col {
		if v > maxLog {
			maxLog = v
		}
	}
	want := denseLogSumExp(col)
	if got := logSumExp(col, maxLog); !sameBits(got, want) {
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
