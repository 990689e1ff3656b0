package gmm

import "repro/internal/linalg"

// bundle is the packed scoring form of a prepared model: its terms, their
// layout, and the candidate grid certified for exactly these constants. It
// is built once per installed model (New, RestoreModel, the end of Fit,
// Quantize) and is immutable afterwards, so shard goroutines score through
// it without synchronisation.
type bundle struct {
	terms []linalg.Term
	// folded says the terms' precision entries fold the -1/2 exponent
	// factor, a quantized model's layout: their log-density is LogCoef + q,
	// not LogCoef - 0.5·q.
	folded bool
	grid   grid
}

// rebuildBundle packs the prepared components into the scoring bundle and
// certifies its candidate grid.
func (m *Model) rebuildBundle() {
	m.bundle = newBundle(packTerms(m.Components), false)
}

// packTerms packs prepared components into batch-kernel terms, whose
// LogDensity(-0.5, x, y) has the bits of Component.LogDensity.
func packTerms(comps []Component) []linalg.Term {
	terms := make([]linalg.Term, len(comps))
	for i := range comps {
		c := &comps[i]
		terms[i] = linalg.Term{
			MeanX: c.Mean.X, MeanY: c.Mean.Y,
			PXX: c.precision.XX, PXY: c.precision.XY, PYY: c.precision.YY,
			LogCoef: c.logCoef,
		}
	}
	return terms
}

// newBundle wraps terms in the given layout and builds their candidate grid.
func newBundle(terms []linalg.Term, folded bool) bundle {
	b := bundle{terms: terms, folded: folded}
	b.grid = buildGrid(terms, b.scale())
	return b
}

// scale is the factor that turns a term's quadratic form into its
// log-density: 1 for folded terms, -0.5 otherwise.
func (b *bundle) scale() float64 {
	if b.folded {
		return 1
	}
	return -0.5
}

// logDensities is the batch kernel for the bundle's layout: it writes the
// log-densities at (x, y) of the terms mask selects to dst and returns their
// count and maximum. Float terms have the bits of Component.LogDensity,
// folded ones those of QuantizedModel.logDensity.
func (b *bundle) logDensities(dst []float64, mask []uint64, x, y float64) (int, float64) {
	if b.folded {
		return linalg.FoldedLogDensityBatch(dst, b.terms, mask, x, y)
	}
	return linalg.LogDensityBatch(dst, b.terms, mask, x, y)
}

// Scratch is caller-owned scoring scratch for the batch kernel: one point's
// candidate log-densities, K floats. The zero value is ready to use and grows
// on demand; after the first call at a given K, scoring through it allocates
// nothing.
//
// A Scratch may not be shared by concurrent callers — the serving path keeps
// one per partition, since partitions are drained on independent shard
// goroutines against the same shared model.
type Scratch struct {
	ld []float64 // ld[n]: the point's n-th candidate log-density
}

// terms returns the K-term buffer, growing it if needed.
func (s *Scratch) terms(k int) []float64 {
	if cap(s.ld) < k {
		s.ld = make([]float64, k)
	}
	return s.ld[:k]
}
