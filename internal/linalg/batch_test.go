package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// batchKernel is the signature LogDensityBatch and FoldedLogDensityBatch
// share.
type batchKernel func(dst []float64, terms []Term, mask []uint64, x, y float64) (int, float64)

// sameBits is bit equality, with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// batchPoints are random points in [-r, r]² followed by the unit square's
// corners and the non-finite coordinates, where the quadratic forms
// overflow or turn NaN.
func batchPoints(rng *rand.Rand, n int, r float64) []Vec2 {
	pts := make([]Vec2, n)
	for i := range pts {
		pts[i] = V2(rng.Float64()*2*r-r, rng.Float64()*2*r-r)
	}
	inf := math.Inf(1)
	return append(pts, V2(0, 0), V2(1, 1), V2(inf, 0.5), V2(0.5, -inf), V2(math.NaN(), 0.5))
}

// checkBatch runs kernel at every point with a random mask over terms, plus
// the full and the empty mask, and checks it against want: the selected
// terms in ascending index order with want's bits, their count, and the
// strict > maximum from -Inf.
func checkBatch(t *testing.T, rng *rand.Rand, kernel batchKernel, terms []Term, pts []Vec2, want func(c int, p Vec2) float64) {
	t.Helper()
	k := len(terms)
	words := (k + 63) / 64
	full := make([]uint64, words)
	for c := 0; c < k; c++ {
		full[c>>6] |= 1 << (c & 63)
	}
	dst := make([]float64, k)
	for i, p := range pts {
		random := make([]uint64, words)
		for w := range random {
			random[w] = rng.Uint64() & full[w]
		}
		for _, mask := range [][]uint64{random, full, make([]uint64, words)} {
			n, maxLog := kernel(dst, terms, mask, p.X, p.Y)
			wantN, wantMax := 0, math.Inf(-1)
			for c := 0; c < k; c++ {
				if mask[c>>6]&(1<<(c&63)) == 0 {
					continue
				}
				v := want(c, p)
				if wantN < n && !sameBits(dst[wantN], v) {
					t.Fatalf("point %d %v, term %d: batch %v != unfused %v (must be bit-identical)", i, p, c, dst[wantN], v)
				}
				wantN++
				if v > wantMax {
					wantMax = v
				}
			}
			if n != wantN {
				t.Fatalf("point %d: %d terms written, mask selects %d", i, n, wantN)
			}
			if !sameBits(maxLog, wantMax) {
				t.Fatalf("point %d: max %v, strict scan finds %v", i, maxLog, wantMax)
			}
		}
	}
}

// TestLogDensityBatchMatchesQuadForm pins the gathered kernel to the exact
// arithmetic of the unfused path (QuadForm on the difference vector, then
// the -1/2 fold) for every term a mask selects: the serving goldens depend
// on the two producing identical bits.
func TestLogDensityBatchMatchesQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k = 131 // three mask words, the last one partial
	precs := make([]Sym2, k)
	means := make([]Vec2, k)
	terms := make([]Term, k)
	for c := range terms {
		precs[c], means[c] = Sym2{XX: 40, XY: -3, YY: 25}, V2(0.4, 0.6)
		logCoef := -2.25
		if c > 0 {
			precs[c] = Sym2{XX: 1 + 99*rng.Float64(), XY: 4*rng.Float64() - 2, YY: 1 + 99*rng.Float64()}
			means[c] = V2(rng.Float64(), rng.Float64())
			logCoef = -10 * rng.Float64()
		}
		terms[c] = Term{
			MeanX: means[c].X, MeanY: means[c].Y,
			PXX: precs[c].XX, PXY: precs[c].XY, PYY: precs[c].YY,
			LogCoef: logCoef,
		}
	}
	checkBatch(t, rng, LogDensityBatch, terms, batchPoints(rng, 40, 10), func(c int, p Vec2) float64 {
		return terms[c].LogCoef - 0.5*precs[c].QuadForm(p.Sub(means[c]))
	})
}

// TestFoldedLogDensityBatch pins the quantized-path kernel, whose precision
// entries arrive with the -1/2 factor pre-folded.
func TestFoldedLogDensityBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 65
	terms := make([]Term, k)
	for c := range terms {
		folded, mu, logCoef := Sym2{XX: -20, XY: 1.5, YY: -12.5}, V2(-0.2, 0.9), -1.125
		if c > 0 {
			folded = Sym2{XX: -50 * rng.Float64(), XY: 4*rng.Float64() - 2, YY: -50 * rng.Float64()}
			mu = V2(rng.Float64(), rng.Float64())
			logCoef = -10 * rng.Float64()
		}
		terms[c] = Term{MeanX: mu.X, MeanY: mu.Y, PXX: folded.XX, PXY: folded.XY, PYY: folded.YY, LogCoef: logCoef}
	}
	checkBatch(t, rng, FoldedLogDensityBatch, terms, batchPoints(rng, 40, 2), func(c int, p Vec2) float64 {
		tm := &terms[c]
		dx, dy := p.X-tm.MeanX, p.Y-tm.MeanY
		return tm.LogCoef + (dx*dx*tm.PXX + 2*dx*dy*tm.PXY + dy*dy*tm.PYY)
	})
}

// TestBatchKernelsEmpty: with no terms, or a mask that selects none, the
// kernels write nothing and report a -Inf maximum.
func TestBatchKernelsEmpty(t *testing.T) {
	terms := make([]Term, 70)
	for name, kernel := range map[string]batchKernel{"float": LogDensityBatch, "folded": FoldedLogDensityBatch} {
		if n, maxLog := kernel(nil, nil, nil, 0, 0); n != 0 || !math.IsInf(maxLog, -1) {
			t.Errorf("%s, no terms: n %d, max %v", name, n, maxLog)
		}
		if n, maxLog := kernel(nil, terms, make([]uint64, 2), 0.5, 0.5); n != 0 || !math.IsInf(maxLog, -1) {
			t.Errorf("%s, empty mask: n %d, max %v", name, n, maxLog)
		}
	}
}

func TestLogDensityBatchAllocs(t *testing.T) {
	const k = 256
	terms := make([]Term, k)
	for c := range terms {
		terms[c] = Term{MeanX: 0.5, MeanY: 0.5, PXX: 30, PXY: -2, PYY: 20, LogCoef: -1}
	}
	mask := make([]uint64, k/64)
	for w := range mask {
		mask[w] = math.MaxUint64
	}
	dst := make([]float64, k)
	if a := testing.AllocsPerRun(20, func() {
		LogDensityBatch(dst, terms, mask, 0.3, 0.7)
	}); a != 0 {
		t.Errorf("LogDensityBatch allocates %v per run", a)
	}
	if n, _ := LogDensityBatch(dst, terms, mask, 0.3, 0.7); n != k {
		t.Errorf("full mask wrote %d of %d terms", n, k)
	}
}
