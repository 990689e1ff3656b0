package gmm

import "math"

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

// logSumExp returns log Σ exp(ld[n]) given maxLog, ld's maximum as a strict >
// scan from -Inf finds it. It sums in order and skips only negligible terms,
// so the result has the bits of the dense max-then-sum loop: -Inf when no
// term exceeds -Inf, NaN when any term it evaluates is NaN.
func logSumExp(ld []float64, maxLog float64) float64 {
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for _, v := range ld {
		if d := v - maxLog; !negligible(d, sum) {
			sum += math.Exp(d)
		}
	}
	return maxLog + math.Log(sum)
}

// logScore scores one point through the candidate grid: the batch kernel
// evaluates only the set bits of the point's cell mask, in ascending
// component order, into ld (at least K long), then the log-sum-exp runs over
// them. Every dropped component is certified to be an exact zero below the
// maximum, which the dense sum skips too, so the result has the bits of
// LogScore.
func (b *bundle) logScore(x, y float64, ld []float64) float64 {
	n, maxLog := b.logDensities(ld, b.grid.candidates(x, y), x, y)
	return logSumExp(ld[:n], maxLog)
}

// scorePageTimes fills dst with the mixture density at each (page,
// timestamp) pair, point by point through the candidate kernel. It is the
// body of both models' ScorePageTimeBatchScratch.
func (b *bundle) scorePageTimes(pages, times, dst []float64, s *Scratch) {
	if len(pages) == 0 {
		return
	}
	_ = dst[len(pages)-1]
	_ = times[len(pages)-1]
	ld := s.terms(len(b.terms))
	for i, x := range pages {
		dst[i] = math.Exp(b.logScore(x, times[i], ld))
	}
}

// ScorePageTimeBatchScratch fills dst with the mixture density at each
// (page, timestamp) pair through the caller-owned scratch, bit-identical to
// per-point ScorePageTime. It allocates nothing once the scratch has grown to
// this model's K; dst must be at least len(pages) long.
func (m *Model) ScorePageTimeBatchScratch(pages, times, dst []float64, s *Scratch) {
	m.bundle.scorePageTimes(pages, times, dst, s)
}
