package gmm

import "math"

// scoreBlock is the number of points scored per block. A block's scratch is
// K*scoreBlock float64s (128 KiB at the paper's K = 256), sized to stay in
// L2 while amortizing the per-component parameter loads across the block.
const scoreBlock = 64

// The log-sum-exp below skips the exps that cannot change a bit of the sum.
// TestExpCutoffs checks both bounds against math.Exp on the running platform.
const (
	// expZeroCut: math.Exp(d) is exactly +0 for every d below it (float64
	// exp underflows near -745.13), and adding +0 leaves any sum unchanged.
	expZeroCut = -746.0
	// expTinyCut: math.Exp(d) < 2^-53 for every d below it (ln 2^-53 is
	// about -36.74). That is under half an ulp of any sum >= 1, so
	// round-to-nearest returns the sum unchanged.
	expTinyCut = -37.5
)

// negligible reports whether adding math.Exp(d) to a running sum of
// non-negative terms leaves every bit of the sum as it is. A NaN d is never
// negligible. Once the sum holds the maximum component's exp(0) = 1, every
// term below expTinyCut is negligible; before that, only exact zeros are,
// unless earlier terms have already carried the sum to 1.
func negligible(d, sum float64) bool {
	return d < expTinyCut && (d < expZeroCut || sum >= 1)
}

// logSumExp returns log Σ_c exp(ld[c·scoreBlock]), one point's column of
// the block buffer, given maxLog, the column's maximum as a strict > scan
// from -Inf finds it. It sums in component order and skips only negligible
// terms, so the result has the bits of the dense max-then-sum loop: -Inf
// when no term exceeds -Inf, NaN when any term it evaluates is NaN.
func logSumExp(ld []float64, maxLog float64) float64 {
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for j := 0; j < len(ld); j += scoreBlock {
		if d := ld[j] - maxLog; !negligible(d, sum) {
			sum += math.Exp(d)
		}
	}
	return maxLog + math.Log(sum)
}

// logScoreBlock scores one block of at most scoreBlock points into dst. Each
// component's log-density sweep fills its column of the component-major
// block buffer ld (Scratch.block) and folds into the running per-point
// maximum, kept in dst; logSumExp then sums each point's terms in component
// order. Per point this is the arithmetic of LogScore, so batched and
// per-call scoring are bit-identical.
func (b *soa) logScoreBlock(dst, xs, ys, ld []float64) {
	n := len(xs)
	maxLog := dst[:n]
	for i := range maxLog {
		maxLog[i] = math.Inf(-1)
	}
	for c := range b.logCoef {
		col := ld[c*scoreBlock:][:n]
		b.density(col, xs, ys, b.meanX[c], b.meanY[c], b.pxx[c], b.pxy[c], b.pyy[c], b.logCoef[c])
		for i, v := range col {
			if v > maxLog[i] {
				maxLog[i] = v
			}
		}
	}
	for i, m := range maxLog {
		dst[i] = logSumExp(ld[i:], m)
	}
}

// scorePageTimes fills dst with the mixture density at each (page,
// timestamp) pair, scoring block-wise straight from the coordinate slices
// through s. It is the body of both models' ScorePageTimeBatchScratch.
func (b *soa) scorePageTimes(pages, times, dst []float64, s *Scratch) {
	if len(pages) == 0 {
		return
	}
	_ = dst[len(pages)-1]
	_ = times[len(pages)-1]
	ld := s.block(len(b.logCoef))
	for start := 0; start < len(pages); start += scoreBlock {
		end := min(start+scoreBlock, len(pages))
		out := dst[start:end]
		b.logScoreBlock(out, pages[start:end], times[start:end], ld)
		for i := range out {
			out[i] = math.Exp(out[i])
		}
	}
}

// ScorePageTimeBatchScratch fills dst with the mixture density at each
// (page, timestamp) pair through the caller-owned scratch, bit-identical to
// per-point ScorePageTime. It allocates nothing once the scratch has grown to
// this model's K; dst must be at least len(pages) long.
func (m *Model) ScorePageTimeBatchScratch(pages, times, dst []float64, s *Scratch) {
	m.soa.scorePageTimes(pages, times, dst, s)
}
