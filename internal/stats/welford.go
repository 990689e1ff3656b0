package stats

import "math"

// Welford accumulates mean and variance in one pass with Welford's online
// algorithm — numerically stable regardless of magnitude. The experiment
// harness uses it to report mean ± std across repeated seeds.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Observe adds one sample.
func (w *Welford) Observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }
