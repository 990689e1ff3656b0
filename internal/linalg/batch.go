package linalg

import (
	"math"
	"math/bits"
)

// Term is one Gaussian's log-density constants, packed for the batch
// kernels: the mean, the precision-matrix entries and the log coefficient,
// the six words per Gaussian of the FPGA weight buffer. The pad rounds a
// Term up to 64 bytes: Go's allocator places a slice of them on a 64-byte
// boundary, so a kernel that gathers terms by index reads one cache line
// per term.
type Term struct {
	MeanX, MeanY  float64
	PXX, PXY, PYY float64
	LogCoef       float64
	_             [2]float64
}

// LogDensity is the term's log-density at (x, y): LogCoef + scale·q, where
// q is the quadratic form of the precision entries on (x, y) − mean with
// the expression shape of Sym2.QuadForm. scale is −0.5 for a precision
// matrix, where LogCoef + (−0.5)·q has the bits of LogCoef − 0.5·q, and 1
// for entries that already fold the −1/2 exponent factor.
func (t *Term) LogDensity(scale, x, y float64) float64 {
	dx := x - t.MeanX
	dy := y - t.MeanY
	q := dx*dx*t.PXX + 2*dx*dy*t.PXY + dy*dy*t.PYY
	return t.LogCoef + scale*q
}

// LogDensityBatch evaluates the terms mask selects at one point (x, y):
// bit c of mask[c/64] selects terms[c]. In ascending index order it writes
// the n-th selected term's LogCoef − 0.5·q to dst[n], and it returns the
// count written and their maximum as a strict > scan from −Inf finds it
// (−Inf when nothing is selected or every term is −Inf; a NaN term never
// becomes the maximum). Gathering the selected terms point by point lets a
// mixture scorer skip the components it has proved negligible without
// touching their constants.
//
// Each output is computed with exactly the expression shapes of
// Sym2.QuadForm followed by LogCoef − 0.5·q, so gathered and per-component
// scoring are bit-identical. dst must have room for every selected term,
// and no bit may select past len(terms).
func LogDensityBatch(dst []float64, terms []Term, mask []uint64, x, y float64) (int, float64) {
	return gatherLogDensities(dst, terms, mask, -0.5, x, y)
}

// FoldedLogDensityBatch is LogDensityBatch for precision entries that
// already fold the −1/2 exponent factor — the quantized weight-buffer
// layout, where PXX/PXY/PYY store −(1/2)·Σ⁻¹. Each output is LogCoef + q
// with the same quadratic-form expression shape, so gathered and per-point
// quantized scoring stay bit-identical.
func FoldedLogDensityBatch(dst []float64, terms []Term, mask []uint64, x, y float64) (int, float64) {
	return gatherLogDensities(dst, terms, mask, 1, x, y)
}

// gatherLogDensities is the body of both batch kernels, walking the set
// bits of mask lowest first.
func gatherLogDensities(dst []float64, terms []Term, mask []uint64, scale, x, y float64) (int, float64) {
	maxLog := math.Inf(-1)
	n := 0
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			v := terms[w<<6|bits.TrailingZeros64(word)].LogDensity(scale, x, y)
			dst[n] = v
			n++
			if v > maxLog {
				maxLog = v
			}
		}
	}
	return n, maxLog
}
