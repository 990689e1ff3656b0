package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestLatencyAccumulator(t *testing.T) {
	var a LatencyAccumulator
	for _, ns := range []int64{10, 20, 30} {
		a.Observe(ns)
	}
	if a.Count() != 3 || a.Sum() != 60 {
		t.Errorf("Count=%d Sum=%d", a.Count(), a.Sum())
	}
	if a.Mean() != 20 {
		t.Errorf("Mean = %v, want 20", a.Mean())
	}
	if a.Min() != 10 || a.Max() != 30 {
		t.Errorf("Min=%d Max=%d", a.Min(), a.Max())
	}
}

func TestLatencyAccumulatorFirstSampleIsMin(t *testing.T) {
	var a LatencyAccumulator
	a.Observe(50)
	if a.Min() != 50 || a.Max() != 50 {
		t.Errorf("single sample Min=%d Max=%d, want 50/50", a.Min(), a.Max())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := DefaultLatencyHistogram()
	// 1..1000 ns uniformly.
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000)
	}
	p50 := h.Percentile(50)
	if p50 < 480_000 || p50 > 520_000 {
		t.Errorf("P50 = %d, want ~500000", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 980_000 || p99 > 1_000_000 {
		t.Errorf("P99 = %d, want ~990000", p99)
	}
	if h.Percentile(0) != 1000 {
		t.Errorf("P0 = %d, want 1000", h.Percentile(0))
	}
	if h.Percentile(100) != 1_000_000 {
		t.Errorf("P100 = %d, want 1000000", h.Percentile(100))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := DefaultLatencyHistogram()
	if h.Percentile(50) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	s := h.Summarize()
	if s.Count != 0 {
		t.Error("empty summary should report 0 count")
	}
}

// TestHistogramBuckets pins the bucket geometry: samples below 128 ns are
// exact, buckets are contiguous and monotone in the sample, every sample lies
// within 1/128 of its bucket's midpoint, the largest int64 lands in the last
// bucket, and storage grows lazily in whole octaves.
func TestHistogramBuckets(t *testing.T) {
	for ns := int64(0); ns < 2*subBuckets; ns++ {
		if bucketIndex(ns) != int(ns) || bucketMid(int(ns)) != ns {
			t.Fatalf("sample %d: bucket %d, midpoint %d; want exact", ns, bucketIndex(ns), bucketMid(int(ns)))
		}
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d, want %d", got, numBuckets-1)
	}
	for i := 1; i < numBuckets; i++ {
		if mid := bucketMid(i); bucketIndex(mid) != i || mid <= bucketMid(i-1) {
			t.Fatalf("bucket %d: midpoint %d maps to bucket %d (previous midpoint %d)", i, mid, bucketIndex(mid), bucketMid(i-1))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100_000; k++ {
		v := rng.Int63n(1 << uint(rng.Intn(63)))
		i := bucketIndex(v)
		if off := math.Abs(float64(bucketMid(i) - v)); off > float64(v)/128 {
			t.Fatalf("sample %d: midpoint %d of bucket %d is off by more than 1/128", v, bucketMid(i), i)
		}
		if j := bucketIndex(v + 1); j != i && j != i+1 {
			t.Fatalf("samples %d and %d land in buckets %d and %d: not contiguous", v, v+1, i, j)
		}
	}

	h := DefaultLatencyHistogram()
	if h.counts != nil {
		t.Fatal("a new histogram allocated bucket storage before its first sample")
	}
	h.Observe(1000) // bucket 317, in the octave of buckets [256, 320)
	h.Observe(10)
	if len(h.counts) != 320 {
		t.Fatalf("bucket storage = %d after samples up to bucket 317, want 320", len(h.counts))
	}
}

func TestHistogramSummary(t *testing.T) {
	h := DefaultLatencyHistogram()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Observe(1000 + r.Int63n(9000))
	}
	s := h.Summarize()
	if s.Count != 5000 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean < 5*time.Microsecond || s.Mean > 6*time.Microsecond {
		t.Errorf("Mean = %v, want ~5.5us", s.Mean)
	}
	if !strings.Contains(s.String(), "n=5000") {
		t.Errorf("Summary.String = %q", s.String())
	}
}

// TestHistogramDefensiveConstruction: the zero value is a usable histogram,
// and a negative sample shares bucket 0 while the exact accumulator and the
// [min, max] clamp keep every reported value inside the observed range.
func TestHistogramDefensiveConstruction(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(-40)
	if h.Count() != 2 || h.Sum() != -30 {
		t.Fatalf("count/sum = %d/%d, want 2/-30", h.Count(), h.Sum())
	}
	if h.Percentile(0) != -40 || h.Percentile(100) != 10 {
		t.Fatalf("p0/p100 = %d/%d, want -40/10", h.Percentile(0), h.Percentile(100))
	}
	if got := h.Percentile(50); got < -40 || got > 10 {
		t.Fatalf("p50 = %d outside the observed range [-40, 10]", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "Benchmark", "LRU", "GMM", "Reduction (%)")
	tb.AddRow("parsec", 3.92, 3.29, 16.23)
	tb.AddRow("memtier", 2.98, 2.09, 29.87)
	out := tb.String()
	for _, want := range []string{"Table 1", "Benchmark", "parsec", "3.92", "29.87"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Benchmark,LRU,GMM,Reduction (%)\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3", len(lines))
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`with,comma`, `with"quote`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("comma not escaped: %q", csv)
	}
	if !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("quote not escaped: %q", csv)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "missrate"
	s.Append(1, 0.5)
	s.Append(2, 0.25)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "x,missrate\n") || !strings.Contains(csv, "2,0.25") {
		t.Errorf("Series CSV = %q", csv)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Error("empty Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if w.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset: 32/7.
	want := 32.0 / 7
	if diff := w.Variance() - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), want)
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose all precision.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		w.Observe(x)
	}
	if diff := w.Mean() - (offset + 2); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("Mean drifted: %v", w.Mean())
	}
	if diff := w.Variance() - 1; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("Variance = %v, want 1", w.Variance())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Observe(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Error("single sample stats wrong")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := DefaultLatencyHistogram()
	b := DefaultLatencyHistogram()
	for _, v := range []int64{50, 150, 400} {
		a.Observe(v)
	}
	for _, v := range []int64{25, 1000, 3000} {
		b.Observe(v)
	}
	want := DefaultLatencyHistogram()
	for _, v := range []int64{50, 150, 400, 25, 1000, 3000} {
		want.Observe(v)
	}
	a.Merge(b)
	if a.Count() != want.Count() {
		t.Fatalf("count = %d, want %d", a.Count(), want.Count())
	}
	sa, sw := a.Summarize(), want.Summarize()
	if sa != sw {
		t.Fatalf("merged summary %+v != direct summary %+v", sa, sw)
	}
	// Merging an empty histogram is a no-op.
	before := a.Summarize()
	a.Merge(DefaultLatencyHistogram())
	a.Merge(nil)
	if a.Summarize() != before {
		t.Fatal("merging empty histogram changed the summary")
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	a := DefaultLatencyHistogram()
	b := DefaultLatencyHistogram()
	b.Observe(500)
	b.Observe(200)
	a.Merge(b)
	if a.Count() != 2 || a.Summarize().Min != 200 || a.Summarize().Max != 500 {
		t.Fatalf("merge into empty: %+v", a.Summarize())
	}
}

// TestHistogramMergeRetention: a first source past the 65,536 samples a
// retained-sample histogram kept must not crowd a later source out of the
// percentiles, with or without SetRetention, which no longer changes anything.
func TestHistogramMergeRetention(t *testing.T) {
	big := DefaultLatencyHistogram()
	for i := 0; i < 1<<16+1000; i++ {
		big.Observe(100)
	}
	small := DefaultLatencyHistogram()
	small.Observe(10_000)

	for _, retention := range []int{0, 2 << 16} {
		agg := DefaultLatencyHistogram()
		if retention > 0 {
			agg.SetRetention(retention)
		}
		agg.Merge(big)
		agg.Merge(small)
		if got := agg.Percentile(100); got != 10_000 {
			t.Fatalf("retention %d: max after merging a small source behind a big one = %d, want 10000", retention, got)
		}
		if agg.Count() != 1<<16+1001 {
			t.Fatalf("retention %d: count = %d, want %d", retention, agg.Count(), 1<<16+1001)
		}
	}
}

// TestHistogramPercentileEdgeCases pins the percentile contract at and
// around its edges: empty histograms, a single sample, the q=1.0 boundary
// and beyond, non-finite quantiles (a NaN p must return 0, not panic), and
// merges where one side is empty.
func TestHistogramPercentileEdgeCases(t *testing.T) {
	t.Parallel()
	t.Run("empty", func(t *testing.T) {
		h := DefaultLatencyHistogram()
		for _, p := range []float64{0, 50, 99, 100, 101, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if got := h.Percentile(p); got != 0 {
				t.Errorf("empty Percentile(%v) = %d, want 0", p, got)
			}
		}
	})
	t.Run("single sample", func(t *testing.T) {
		h := DefaultLatencyHistogram()
		h.Observe(777)
		for _, p := range []float64{0, 1, 50, 99, 100, 250, -5, math.Inf(1)} {
			if got := h.Percentile(p); got != 777 {
				t.Errorf("single-sample Percentile(%v) = %d, want 777", p, got)
			}
		}
		if got := h.Percentile(math.NaN()); got != 0 {
			t.Errorf("Percentile(NaN) = %d, want 0 (defined, not a panic)", got)
		}
	})
	t.Run("quantile boundaries", func(t *testing.T) {
		h := DefaultLatencyHistogram()
		for i := int64(1); i <= 100; i++ {
			h.Observe(i * 10)
		}
		cases := []struct {
			p    float64
			want int64
		}{
			{0, 10},      // p <= 0 is the minimum
			{-10, 10},    // clamped below
			{100, 1000},  // q = 1.0 is the maximum
			{1000, 1000}, // clamped above
			{math.Inf(1), 1000},
			{math.Inf(-1), 10},
			{50, 502}, // nearest rank 50 is 500: the midpoint of its bucket [500, 504)
		}
		for _, c := range cases {
			if got := h.Percentile(c.p); got != c.want {
				t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
			}
		}
		if got := h.Percentile(math.NaN()); got != 0 {
			t.Errorf("Percentile(NaN) = %d, want 0", got)
		}
	})
	t.Run("merge empty and nonempty", func(t *testing.T) {
		full := DefaultLatencyHistogram()
		for i := int64(1); i <= 10; i++ {
			full.Observe(i * 100)
		}
		// Empty into nonempty: a no-op.
		a := DefaultLatencyHistogram()
		for i := int64(1); i <= 10; i++ {
			a.Observe(i * 100)
		}
		a.Merge(DefaultLatencyHistogram())
		// Nonempty into empty: adopts the source exactly (including min).
		b := DefaultLatencyHistogram()
		b.Merge(full)
		for _, h := range []*Histogram{a, b} {
			if h.Count() != 10 || h.Sum() != 5500 {
				t.Fatalf("count/sum = %d/%d, want 10/5500", h.Count(), h.Sum())
			}
			if h.acc.Min() != 100 || h.acc.Max() != 1000 {
				t.Fatalf("min/max = %d/%d, want 100/1000", h.acc.Min(), h.acc.Max())
			}
			for _, p := range []float64{0, 50, 100} {
				if h.Percentile(p) != full.Percentile(p) {
					t.Fatalf("Percentile(%v) = %d, want %d", p, h.Percentile(p), full.Percentile(p))
				}
			}
		}
		// Empty into empty stays empty.
		c := DefaultLatencyHistogram()
		c.Merge(DefaultLatencyHistogram())
		if c.Count() != 0 || c.Percentile(50) != 0 {
			t.Fatal("empty+empty merge produced samples")
		}
	})
}

// TestHistogramLongRunTail is the long-run regression test: percentiles
// describe the whole run, not its start. 700,000 samples at 1 µs followed by
// 20,000 at 1 ms put the p99 in the late tail, which a histogram keeping only
// its first 65,536 samples reported as 1 µs.
func TestHistogramLongRunTail(t *testing.T) {
	t.Parallel()
	var h Histogram
	for i := 0; i < 700_000; i++ {
		h.Observe(1_000)
	}
	for i := 0; i < 20_000; i++ {
		h.Observe(1_000_000)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 1_000}, {99, 1_000_000}} {
		if got := h.Percentile(c.p); math.Abs(float64(got-c.want)) > float64(c.want)/128 {
			t.Errorf("p%v = %d, want %d within 1/128", c.p, got, c.want)
		}
	}
	if h.Count() != 720_000 || h.Summarize().Max != time.Millisecond {
		t.Errorf("count/max = %d/%v, want 720000/1ms", h.Count(), h.Summarize().Max)
	}
}
