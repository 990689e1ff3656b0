package gmm

import (
	"math"

	"repro/internal/linalg"
)

// The candidate grid splits the normalized unit square, the box
// trace.FitNormalizer maps training data onto, into gridPages × gridTimes
// cells. Both counts are powers of two, so int(x*gridPages) and the cell
// edges k/gridPages are exact and every point lands in the cell whose masks
// were certified for it.
const (
	gridPages = 64 // cells along the normalized page axis
	gridTimes = 8  // cells along the normalized time axis
	gridCells = gridPages * gridTimes
)

// grid holds, for each cell, a K-bit mask of the components whose term may
// be non-zero somewhere in the cell (bit c of word c/64 is component c). A
// component leaves a cell only when a certified bound proves that its term
// is an exact zero of the log-sum-exp (d < expZeroCut) at every point of the
// cell, so it can never be the maximum and negligible would skip it anyway:
// scoring only the candidates keeps every bit of the dense score.
type grid struct {
	words int // mask words per cell, ⌈K/64⌉
	// masks holds gridCells+1 masks of words each: cell (i, j) — page cell
	// i, time cell j — at words*(j*gridPages+i), then the all-components
	// mask that points outside [0,1)², NaN and ±Inf included, use.
	masks []uint64
}

// candidates returns the mask of the cell (x, y) falls in.
func (g *grid) candidates(x, y float64) []uint64 {
	cell := gridCells
	if x >= 0 && x < 1 && y >= 0 && y < 1 {
		cell = int(y*gridTimes)*gridPages + int(x*gridPages)
	}
	return g.masks[cell*g.words : (cell+1)*g.words]
}

// certMax caps |logCoef| and F²·(|A|+2|B|+|C|) for a component the grid may
// drop. Below it no product, sum or margin of the certificate overflows, so
// a dropped term is finite (never NaN) at every point of the unit square.
const certMax = 1e300

// certificate is what the grid build needs to know about one term.
type certificate struct {
	kind certKind
	// kx and ky are (AC−B²)/C and (AC−B²)/A: over every point at page
	// distance dx from the mean, the term is at most logCoef + dx²·kx, and
	// at time distance dy at most logCoef + dy²·ky. Both are negative.
	kx, ky float64
	// margin covers the rounding of the bound, of the term's evaluation at
	// any point of the unit square, and of the cut comparison.
	margin float64
}

type certKind uint8

const (
	// certKeep: no bound is certified, so the term is a candidate in every
	// cell. Non-concave terms (quantization can produce them), terms with
	// non-finite constants and terms too large for certMax land here.
	certKeep certKind = iota
	// certConcave: a concave term with a finite log coefficient. It may
	// supply a cell's lower bound, and it leaves the cells where its upper
	// bound falls below that lower bound by more than expZeroCut.
	certConcave
	// certDead: a weight-0 term (-Inf log coefficient) whose quadratic form
	// is finite over the unit square, so the term is -Inf there. It leaves
	// every cell whose lower bound is finite.
	certDead
)

// certify derives term t's certificate from the bundle's own constants, not
// from a covariance, so a quantized bundle is covered too. With A = s·pxx,
// B = s·pxy and C = s·pyy (s the bundle's scale), the term is
// logCoef + A·dx² + 2B·dx·dy + C·dy², concave when A < 0, C < 0 and
// AC − B² > 0. For fixed dx its maximum over dy is logCoef + dx²·(AC−B²)/C,
// and for fixed dy its maximum over dx is logCoef + dy²·(AC−B²)/A; both are
// upper bounds, so the tighter one, the min, is too. For a float model this
// is logCoef − ½·max(dx²/Σxx, dy²/Σyy).
//
// The margin is 2 nats plus 1e-10·(|logCoef| + F²·(|A|+2|B|+|C|)), where F is
// the term's farthest per-axis distance to the unit square's edges. Every
// computed dx over the square is at most F in magnitude (fl is monotone), so
// the evaluated term is within about 8u·(|logCoef| + F²·(|A|+2|B|+|C|)) of
// its exact value at the computed dx, dy (u = 2^-53). Since |(AC−B²)/C| ≤ |A|
// and |(AC−B²)/A| ≤ |C|, the computed bound is within about 10u of the same
// scale of the exact one, whatever cancellation AC − B² suffers. 1e-10 is
// over 10^5 times those errors; the 2 nats absorb the rounding of the
// difference d = term − max that negligible finally compares to expZeroCut.
func certify(t *linalg.Term, scale float64) certificate {
	a, b, c := scale*t.PXX, scale*t.PXY, scale*t.PYY
	f := max(math.Abs(t.MeanX), math.Abs(1-t.MeanX), math.Abs(t.MeanY), math.Abs(1-t.MeanY))
	size := f * f * (math.Abs(a) + 2*math.Abs(b) + math.Abs(c))
	if !(size <= certMax) { // also false for NaN constants
		return certificate{}
	}
	if math.IsInf(t.LogCoef, -1) {
		return certificate{kind: certDead}
	}
	if !(math.Abs(t.LogCoef) <= certMax) {
		return certificate{}
	}
	det := a*c - b*b
	if !(a < 0 && c < 0 && det > 0 && det <= math.MaxFloat64) {
		return certificate{}
	}
	kx, ky := det/c, det/a
	if math.IsInf(kx, 0) || math.IsInf(ky, 0) {
		return certificate{}
	}
	return certificate{
		kind:   certConcave,
		kx:     kx,
		ky:     ky,
		margin: 2 + 1e-10*(math.Abs(t.LogCoef)+size),
	}
}

// axisDistance is the distance from mean to the cell edges [lo, hi], 0 when
// the mean lies inside. Rounding is monotone, so every computed x - mean for
// a point of the cell is at least this far from 0.
func axisDistance(mean, lo, hi float64) float64 {
	switch {
	case mean < lo:
		return lo - mean
	case mean > hi:
		return mean - hi
	}
	return 0
}

// buildGrid certifies the candidate masks of terms at the given scale. Per
// cell, the concave term with the largest upper bound supplies the lower
// bound L: the smallest of its four corner log-densities, since a concave
// term takes its minimum over a box at a corner. The maximum term at any
// point of the cell is then at least L, so a term whose bound plus margin
// stays below L + expZeroCut − margin(L) is an exact zero there.
func buildGrid(terms []linalg.Term, scale float64) grid {
	k := len(terms)
	g := grid{words: (k + 63) / 64}
	g.masks = make([]uint64, (gridCells+1)*g.words)
	all := g.masks[gridCells*g.words:]
	for c := range terms {
		all[c>>6] |= 1 << (c & 63)
	}
	certs := make([]certificate, k)
	for c := range terms {
		certs[c] = certify(&terms[c], scale)
	}
	// A cell's bound on term c is logCoef + min(dx²·kx, dy²·ky), where dx
	// depends only on the cell's page column and dy only on its time row:
	// the row terms are computed once per row, the column terms once per
	// column.
	rows := make([]float64, gridTimes*k)
	for j := 0; j < gridTimes; j++ {
		y0, y1 := float64(j)/gridTimes, float64(j+1)/gridTimes
		for c := range terms {
			dy := axisDistance(terms[c].MeanY, y0, y1)
			rows[j*k+c] = dy * dy * certs[c].ky
		}
	}
	cols := make([]float64, k)
	bounds := make([]float64, k)
	for i := 0; i < gridPages; i++ {
		x0, x1 := float64(i)/gridPages, float64(i+1)/gridPages
		for c := range terms {
			dx := axisDistance(terms[c].MeanX, x0, x1)
			cols[c] = dx * dx * certs[c].kx
		}
		for j := 0; j < gridTimes; j++ {
			y0, y1 := float64(j)/gridTimes, float64(j+1)/gridTimes
			row := rows[j*k:][:k]
			best, bestBound := -1, math.Inf(-1)
			for c := range terms {
				if certs[c].kind != certConcave {
					continue
				}
				bounds[c] = terms[c].LogCoef + min(cols[c], row[c])
				if bounds[c] > bestBound {
					best, bestBound = c, bounds[c]
				}
			}
			cell := g.masks[(j*gridPages+i)*g.words:][:g.words]
			if best < 0 {
				copy(cell, all)
				continue
			}
			t := &terms[best]
			lower := min(t.LogDensity(scale, x0, y0), t.LogDensity(scale, x1, y0),
				t.LogDensity(scale, x0, y1), t.LogDensity(scale, x1, y1))
			cut := lower + expZeroCut - certs[best].margin
			for c := range terms {
				switch certs[c].kind {
				case certConcave:
					if bounds[c]+certs[c].margin < cut {
						continue
					}
				case certDead:
					continue // lower is finite: best is concave and certified
				}
				cell[c>>6] |= 1 << (c & 63)
			}
		}
	}
	return g
}
