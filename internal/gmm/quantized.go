package gmm

import (
	"math"

	"repro/internal/linalg"
)

// QuantizedModel is the fixed-point form of a trained GMM as it would live in
// the FPGA's on-board weight buffer (Sec. 4.1). Each component is reduced to
// the five constants the pipelined PE consumes per Gaussian: the two mean
// coordinates, the three precision-matrix entries folded with the -1/2
// exponent factor, and the log coefficient. Values are stored in Q16.16
// two's-complement, matching a 32-bit datapath: six words per component, so
// at K = 256 the model is 6 KiB, which is why the paper's design holds it
// in a single on-board buffer and never touches HBM during inference.
type QuantizedModel struct {
	// Per-component quantized parameters, parallel slices of length K.
	MeanX, MeanY []int32
	// PrecXX/PrecXY/PrecYY hold -(1/2) * Sigma^-1 entries.
	PrecXX, PrecXY, PrecYY []int32
	LogCoef                []int32

	// dq is the dequantized scoring bundle (fromQ of every constant,
	// precision entries still carrying the folded -1/2) with its candidate
	// grid, built by Quantize so the batch kernel never converts per point.
	// Models assembled by hand rather than through Quantize leave it empty;
	// the batch entry point falls back to per-point scoring then.
	dq bundle
}

// QFracBits is the number of fractional bits in the Q16.16 representation.
const QFracBits = 16

const qScale = 1 << QFracBits

// qLogCoefFloor is the quantized log-coefficient assigned to components that
// contribute no density (weight 0, logCoef -Inf). toQ(-32768) is exactly
// math.MinInt32, the most negative representable exponent; math.Exp
// underflows it to zero density just as -Inf would. The floor is a deliberate
// encoding, not saturation, so Quantize excludes it from the QuantReport.
const qLogCoefFloor = -32768.0

// QuantReport describes how faithfully Quantize represented a model in
// Q16.16: how many constants fell outside the representable range and had to
// be clamped (a saturating quantization scores a wrong density with no other
// signal), and the largest absolute representable error among the constants
// that did fit (bounded by 2^-17 by construction of round-to-nearest).
type QuantReport struct {
	// Saturated counts constants clamped to the int32 range. Any non-zero
	// value means the quantized model's densities are unfaithful to the
	// float model; serving refuses such models.
	Saturated int
	// MaxAbsErr is the largest |fromQ(toQ(f)) - f| over the non-saturated
	// constants — the worst per-constant representation error.
	MaxAbsErr float64
}

// toQ converts a float64 to Q16.16 with saturation.
func toQ(f float64) int32 {
	v := math.Round(f * qScale)
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

// fromQ converts Q16.16 back to float64.
func fromQ(q int32) float64 { return float64(q) / qScale }

// Quantize converts a prepared model into its fixed-point hardware form and
// reports how faithfully the constants survived: the clamp count and the
// worst representable error. Callers that serve through the quantized model
// must check Report.Saturated — a tight component whose precision entry
// exceeds the Q16.16 range quantizes to an arbitrarily wrong density with no
// other signal.
func Quantize(m *Model) (*QuantizedModel, QuantReport) {
	k := m.K()
	q := &QuantizedModel{
		MeanX: make([]int32, k), MeanY: make([]int32, k),
		PrecXX: make([]int32, k), PrecXY: make([]int32, k), PrecYY: make([]int32, k),
		LogCoef: make([]int32, k),
	}
	var rep QuantReport
	quant := func(f float64) int32 {
		v := math.Round(f * qScale)
		if v > math.MaxInt32 || v < math.MinInt32 {
			rep.Saturated++
			if v > 0 {
				return math.MaxInt32
			}
			return math.MinInt32
		}
		qv := int32(v)
		if err := math.Abs(fromQ(qv) - f); err > rep.MaxAbsErr {
			rep.MaxAbsErr = err
		}
		return qv
	}
	for i := range m.Components {
		c := &m.Components[i]
		q.MeanX[i] = quant(c.Mean.X)
		q.MeanY[i] = quant(c.Mean.Y)
		q.PrecXX[i] = quant(-0.5 * c.precision.XX)
		q.PrecXY[i] = quant(-0.5 * c.precision.XY)
		q.PrecYY[i] = quant(-0.5 * c.precision.YY)
		if lc := c.logCoef; math.IsInf(lc, -1) {
			q.LogCoef[i] = toQ(qLogCoefFloor) // deliberate floor, not saturation
		} else {
			q.LogCoef[i] = quant(lc)
		}
	}
	q.rebuildDQ()
	return q, rep
}

// rebuildDQ packs the dequantized constants into the scoring bundle and
// certifies its candidate grid, once every constant is filled in.
func (q *QuantizedModel) rebuildDQ() {
	terms := make([]linalg.Term, q.K())
	for i := range terms {
		terms[i] = linalg.Term{
			MeanX: fromQ(q.MeanX[i]), MeanY: fromQ(q.MeanY[i]),
			PXX: fromQ(q.PrecXX[i]), PXY: fromQ(q.PrecXY[i]), PYY: fromQ(q.PrecYY[i]),
			LogCoef: fromQ(q.LogCoef[i]),
		}
	}
	q.dq = newBundle(terms, true)
}

// K returns the number of components.
func (q *QuantizedModel) K() int { return len(q.MeanX) }

// logDensity is component i's exponent at (x, y): logCoef + the folded
// quadratic form. The expression shape matches linalg.FoldedLogDensityBatch
// exactly, so per-point and batched quantized scoring are bit-identical.
func (q *QuantizedModel) logDensity(i int, x, y float64) float64 {
	dx := x - fromQ(q.MeanX[i])
	dy := y - fromQ(q.MeanY[i])
	qf := dx*dx*fromQ(q.PrecXX[i]) + 2*dx*dy*fromQ(q.PrecXY[i]) + dy*dy*fromQ(q.PrecYY[i])
	return fromQ(q.LogCoef[i]) + qf
}

// LogScore evaluates the mixture log-density using only the quantized
// constants and float64 exp/log for the transcendental steps, emulating the
// PE datapath (per-Gaussian multiply-adds on fixed-point weights). Two
// passes — max, then a sum that skips only negligible terms — so it
// allocates nothing, like the float model's LogScore.
func (q *QuantizedModel) LogScore(x linalg.Vec2) float64 {
	maxLog := math.Inf(-1)
	for i := 0; i < q.K(); i++ {
		if e := q.logDensity(i, x.X, x.Y); e > maxLog {
			maxLog = e
		}
	}
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for i := 0; i < q.K(); i++ {
		if d := q.logDensity(i, x.X, x.Y) - maxLog; !negligible(d, sum) {
			sum += math.Exp(d)
		}
	}
	return maxLog + math.Log(sum)
}

// Score is the density-domain counterpart of LogScore.
func (q *QuantizedModel) Score(x linalg.Vec2) float64 { return math.Exp(q.LogScore(x)) }

// ScorePageTime evaluates the density at a (page, timestamp) pair; it makes
// the quantized model satisfy the policy engine's Scorer interface alongside
// the float Model.
func (q *QuantizedModel) ScorePageTime(page, timestamp float64) float64 {
	return q.Score(linalg.V2(page, timestamp))
}

// ScorePageTimeBatchScratch fills dst with the quantized mixture density at
// each (page, timestamp) pair through the caller-owned scratch, bit-identical
// to per-point ScorePageTime. It is the zero-allocation batch form the
// serving path threads per-partition scratch through.
func (q *QuantizedModel) ScorePageTimeBatchScratch(pages, times, dst []float64, s *Scratch) {
	if len(q.dq.terms) != q.K() {
		// Hand-assembled model without the Quantize-built bundle: score
		// per point rather than racing a lazy rebuild.
		for i, p := range pages {
			dst[i] = q.ScorePageTime(p, times[i])
		}
		return
	}
	q.dq.scorePageTimes(pages, times, dst, s)
}
