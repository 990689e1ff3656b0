// Package stats provides the measurement substrate shared by the ICGMM
// simulator: latency and Welford accumulators, histograms with percentile
// queries, and renderers that print results in the same row/series formats
// as the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// LatencyAccumulator tracks a running sum/count/min/max of latencies in
// nanoseconds. It is the cheap always-on companion to Histogram.
type LatencyAccumulator struct {
	sum   int64
	count int64
	min   int64
	max   int64
}

// Observe records one latency sample.
func (a *LatencyAccumulator) Observe(ns int64) {
	if a.count == 0 || ns < a.min {
		a.min = ns
	}
	if ns > a.max {
		a.max = ns
	}
	a.sum += ns
	a.count++
}

// Count returns the number of samples.
func (a *LatencyAccumulator) Count() int64 { return a.count }

// Sum returns the total of all samples in nanoseconds.
func (a *LatencyAccumulator) Sum() int64 { return a.sum }

// Mean returns the average sample in nanoseconds, or 0 with no samples.
func (a *LatencyAccumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (a *LatencyAccumulator) Min() int64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *LatencyAccumulator) Max() int64 { return a.max }

// Histogram is a log-bucketed latency histogram with a fixed geometry, in
// the style of HdrHistogram and DDSketch. Samples below 64 ns get one exact
// bucket each; above that every power of two splits into 64 sub-buckets,
// indexed by the sample's bit length and its next six bits. Percentiles are
// read from the bucket counts within 1/128 relative error at any run length,
// while count, sum, mean, min and max stay exact. Merge is vector addition, so
// a merged histogram equals one that observed every sample directly.
//
// The zero value is an empty histogram ready for use. Bucket storage grows on
// demand, a whole octave at a time, up to the highest bucket observed.
type Histogram struct {
	counts []uint64
	acc    LatencyAccumulator
}

const (
	subBits    = 6
	subBuckets = 1 << subBits // sub-buckets per octave; also the exact range
	// numBuckets covers every non-negative int64: the exact buckets below
	// 2^subBits, then one octave per bit length from subBits+1 to 63.
	numBuckets = (64 - subBits) * subBuckets
)

// bucketIndex maps a sample to its bucket. Negative samples share bucket 0.
func bucketIndex(ns int64) int {
	if ns < subBuckets {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - subBits - 1
	// ns>>shift is the sample's top subBits+1 bits, in [64, 128).
	return shift<<subBits + int(ns>>shift)
}

// bucketMid returns the midpoint of bucket i. Every sample in the bucket lies
// within 1/128 of it, relative to the sample: a bucket's half-width is 2^-7 of
// its lower bound.
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i>>subBits - 1
	lower := int64(i&(subBuckets-1)|subBuckets) << shift
	return lower + int64(1)<<shift>>1
}

// DefaultLatencyHistogram returns an empty latency histogram.
func DefaultLatencyHistogram() *Histogram { return new(Histogram) }

// occupied returns the bucket range [lo, hi] of a non-empty histogram: the
// buckets of its exact minimum and maximum. Every sample lies in it and every
// count outside it is zero, so Merge and Percentile touch only this range.
// It is often far narrower than the storage, which starts at bucket 0: a
// serving run's link-latency histogram fills one bucket of 256.
func (h *Histogram) occupied() (lo, hi int) {
	return bucketIndex(h.acc.min), bucketIndex(h.acc.max)
}

// Merge folds other into h: bucket counts add, and the accumulator merge is
// exact (integer sums and counts). Merging per-shard histograms therefore
// gives the same aggregate in any order — the property the serving
// subsystem's determinism contract leans on.
//
// A serving snapshot spends most of its time in Merge's bucket loop, whose
// speed depends on where the linker places it: straddling a 64-byte line, it
// made snapshots 25-40% slower on a 2-vCPU Xeon VM. Merge is declared ahead
// of Observe because that order keeps the loop inside one line in the
// benchmark's build (EXPERIMENTS.md, "Leaner checkpoint").
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.acc.count == 0 {
		return
	}
	lo, hi := other.occupied()
	if hi >= len(h.counts) {
		h.grow(hi)
	}
	dst := h.counts[lo : hi+1]
	for i, c := range other.counts[lo : hi+1] {
		dst[i] += c
	}
	if h.acc.count == 0 || other.acc.min < h.acc.min {
		h.acc.min = other.acc.min
	}
	if other.acc.max > h.acc.max {
		h.acc.max = other.acc.max
	}
	h.acc.sum += other.acc.sum
	h.acc.count += other.acc.count
}

// Observe records one sample in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.acc.Observe(ns)
	i := bucketIndex(ns)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i]++
}

// grow extends the bucket slice to cover index i, rounded up to a whole
// octave so a rising tail reallocates at most once per doubling.
func (h *Histogram) grow(i int) {
	n := (i | (subBuckets - 1)) + 1
	h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
}

// SetRetention does nothing: the histogram keeps no raw samples. It remains
// only because cmd/icgmm-bench, a separate module, still calls it.
func (h *Histogram) SetRetention(int) {}

// Reset empties the histogram while keeping its bucket storage, so interval
// accumulators (the adaptive controller's per-control-window histograms) can
// be reused without reallocating.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.acc = LatencyAccumulator{}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.acc.Count() }

// Sum returns the exact total of all observed samples in nanoseconds.
func (h *Histogram) Sum() int64 { return h.acc.Sum() }

// Mean returns the mean of observed samples in nanoseconds.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Percentile returns the p-th percentile by nearest rank: the midpoint of the
// bucket holding the ceil(p/100 × count)-th smallest sample, clamped to the
// exact [min, max]. It lies within 1/128 relative error of the exact
// nearest-rank sample. The edges are pinned: an empty histogram returns 0,
// p <= 0 returns the minimum, p >= 100 the maximum, and a NaN p returns 0 (it
// is a caller bug, but an unanswerable query must not panic the metrics
// path).
func (h *Histogram) Percentile(p float64) int64 {
	switch {
	case h.acc.count == 0 || math.IsNaN(p):
		return 0
	case p <= 0:
		return h.acc.min
	case p >= 100:
		return h.acc.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.acc.count)))
	lo, hi := h.occupied()
	var seen uint64
	for i, c := range h.counts[lo : hi+1] {
		seen += c
		if seen >= rank {
			return min(max(bucketMid(lo+i), h.acc.min), h.acc.max)
		}
	}
	return h.acc.max
}

// Summary is a compact snapshot of a latency distribution.
type Summary struct {
	Count      int64
	Mean       time.Duration
	Min, Max   time.Duration
	P50, P99   time.Duration
	SumNanosec int64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:      h.acc.Count(),
		Mean:       time.Duration(h.acc.Mean()),
		Min:        time.Duration(h.acc.Min()),
		Max:        time.Duration(h.acc.Max()),
		P50:        time.Duration(h.Percentile(50)),
		P99:        time.Duration(h.Percentile(99)),
		SumNanosec: h.acc.Sum(),
	}
}

// String renders the summary on a single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean, s.Min, s.P50, s.P99, s.Max)
}
