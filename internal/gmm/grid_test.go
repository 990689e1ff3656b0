package gmm

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/linalg"
)

// TestCandidateGridSound checks the certificate directly on the paper's
// fitted K=256 dlrm model, float and q16, and on the hand-built q16 model
// with non-concave terms.
func TestCandidateGridSound(t *testing.T) {
	t.Parallel()
	f, err := fittedK256()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Quantize(f.m)
	checkGridSound(t, "fitted float", &f.m.bundle)
	checkGridSound(t, "fitted q16", &q.dq)
	checkGridSound(t, "non-concave q16", &nonConcaveQ16().dq)
}

// checkGridSound evaluates every component at each cell's corners, edge
// midpoints and interior lattice points: each component the cell's mask
// drops must have a computed term more than expZeroCut below the point's
// maximum, so the dense sum would skip it as an exact zero.
func checkGridSound(t *testing.T, name string, b *bundle) {
	t.Helper()
	fracs := []float64{0, 0.125, 0.375, 0.5, 0.625, 0.875, 1}
	ld := make([]float64, len(b.terms))
	var terms, dropped int
	for j := 0; j < gridTimes; j++ {
		for i := 0; i < gridPages; i++ {
			mask := b.grid.masks[(j*gridPages+i)*b.grid.words:][:b.grid.words]
			for _, fx := range fracs {
				for _, fy := range fracs {
					x, y := (float64(i)+fx)/gridPages, (float64(j)+fy)/gridTimes
					maxLog := math.Inf(-1)
					for c := range b.terms {
						ld[c] = b.terms[c].LogDensity(b.scale(), x, y)
						if ld[c] > maxLog {
							maxLog = ld[c]
						}
					}
					for c := range b.terms {
						if mask[c>>6]&(1<<(c&63)) != 0 {
							continue
						}
						dropped++
						if d := ld[c] - maxLog; !(d < expZeroCut) {
							t.Fatalf("%s cell (%d, %d) point (%v, %v): dropped component %d has d = %v", name, i, j, x, y, c, d)
						}
					}
					terms += len(b.terms)
				}
			}
		}
	}
	t.Logf("%s: %.1f%% of terms dropped", name, 100*float64(dropped)/float64(terms))
	if dropped == 0 {
		t.Fatalf("%s: the grid dropped no terms; the check proves nothing", name)
	}
}

// candidatesPerPoint is the mean number of components the kernel evaluates
// over the points.
func candidatesPerPoint(b *bundle, pages, times []float64) float64 {
	n := 0
	for i := range pages {
		for _, w := range b.grid.candidates(pages[i], times[i]) {
			n += bits.OnesCount64(w)
		}
	}
	return float64(n) / float64(len(pages))
}

// FuzzCandidateScore fuzzes a 1–3 component model and one point: the
// candidate kernel, float and q16, must match the dense reference over
// every component bit for bit.
func FuzzCandidateScore(f *testing.F) {
	// Two tight components far apart, the point next to the first: the
	// grid drops the second.
	f.Add(uint8(1), 1.0, 0.1, 0.1, 1e-4, 0.0, 1e-4, 1.0, 0.9, 0.9, 1e-4, 0.0, 1e-4,
		0.0, 0.5, 0.5, 0.1, 0.0, 0.1, 0.11, 0.1)
	// Three components, one weight-0, the point on a cell corner.
	f.Add(uint8(2), 0.5, 0.2, 0.7, 1e-3, 2e-4, 2e-3, 0.0, 0.6, 0.3, 1e-2, 0.0, 1e-2,
		0.5, 0.95, 0.05, 1e-5, -5e-6, 1e-5, 0.25, 0.375)
	// A point outside the unit square and a broad component.
	f.Add(uint8(0), 1.0, 0.5, 0.5, 4.0, 1.0, 4.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0,
		1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.5, -0.25)
	f.Fuzz(func(t *testing.T, n uint8, w1, mx1, my1, cxx1, cxy1, cyy1, w2, mx2, my2, cxx2, cxy2, cyy2,
		w3, mx3, my3, cxx3, cxy3, cyy3, px, py float64) {
		comps := []Component{
			{Weight: w1, Mean: linalg.V2(mx1, my1), Cov: linalg.Sym2{XX: cxx1, XY: cxy1, YY: cyy1}},
			{Weight: w2, Mean: linalg.V2(mx2, my2), Cov: linalg.Sym2{XX: cxx2, XY: cxy2, YY: cyy2}},
			{Weight: w3, Mean: linalg.V2(mx3, my3), Cov: linalg.Sym2{XX: cxx3, XY: cxy3, YY: cyy3}},
		}
		m, err := New(comps[:1+int(n%3)])
		if err != nil {
			t.Skip() // invalid covariance or weights: not a model
		}
		q, _ := Quantize(m)
		for _, p := range []scorePath{floatPath(m), q16Path(q)} {
			terms := make([]float64, m.K())
			for c := range terms {
				terms[c] = p.term(c, px, py)
			}
			want := denseLogSumExp(terms)
			var s Scratch
			if got := p.b.logScore(px, py, s.terms(m.K())); !sameBits(got, want) {
				t.Fatalf("%s point (%v, %v): candidate kernel %v != dense %v", p.name, px, py, got, want)
			}
		}
	})
}

// BenchmarkCandidateGridBuildK256 times one grid build for the fitted K=256
// model, the cost each set-up, refit and resume pays per installed model.
func BenchmarkCandidateGridBuildK256(b *testing.B) {
	f, err := fittedK256()
	if err != nil {
		b.Fatal(err)
	}
	terms, scale := f.m.bundle.terms, f.m.bundle.scale()
	for b.Loop() {
		buildGrid(terms, scale)
	}
}
