package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestHistogramMergePropertyRandom is the randomized merge contract: over
// 1000 random partitionings and merge orders, folding per-shard histograms
// into an aggregate is order-independent and exactly Sum/Count-preserving —
// the property the serving subsystem's deterministic partition-order merges
// and the controller's interval measurements both lean on. Percentile
// queries, read from the merged buckets, must be permutation-invariant too.
func TestHistogramMergePropertyRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 1000; iter++ {
		nParts := 1 + rng.Intn(6)
		samples := make([][]int64, nParts)
		var wantSum int64
		total := 0
		for p := range samples {
			n := rng.Intn(200)
			samples[p] = make([]int64, n)
			for i := range samples[p] {
				// Cover the exact buckets through multi-second samples.
				v := int64(rng.Intn(1 << uint(2+rng.Intn(30))))
				samples[p][i] = v
				wantSum += v
			}
			total += n
		}

		build := func(order []int) *Histogram {
			agg := DefaultLatencyHistogram()
			for _, p := range order {
				h := DefaultLatencyHistogram()
				for _, v := range samples[p] {
					h.Observe(v)
				}
				agg.Merge(h)
			}
			return agg
		}

		fwd := make([]int, nParts)
		for i := range fwd {
			fwd[i] = i
		}
		shuffled := append([]int(nil), fwd...)
		rng.Shuffle(nParts, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		a, b := build(fwd), build(shuffled)
		if a.Count() != int64(total) || b.Count() != int64(total) {
			t.Fatalf("iter %d: count %d/%d, want %d", iter, a.Count(), b.Count(), total)
		}
		if a.Sum() != wantSum || b.Sum() != wantSum {
			t.Fatalf("iter %d: sum %d/%d, want %d (merge must be exactly sum-preserving)", iter, a.Sum(), b.Sum(), wantSum)
		}
		if a.acc != b.acc {
			t.Fatalf("iter %d: accumulators differ across merge orders: %+v vs %+v", iter, a.acc, b.acc)
		}
		if !slices.Equal(a.counts, b.counts) {
			t.Fatalf("iter %d: bucket counts differ across merge orders", iter)
		}
		// Percentile queries cover the full edge surface: the p<=0 and
		// p>=100 pins, interior quantiles, and out-of-range values — all must
		// be permutation-invariant, including on the iterations where some
		// (or all) partitions are empty and the merge degenerates to
		// empty+nonempty or empty+empty.
		for _, p := range []float64{0, -1, 1, 50, 90, 99, 100, 101} {
			if a.Percentile(p) != b.Percentile(p) {
				t.Fatalf("iter %d: p%v differs across merge orders: %d vs %d",
					iter, p, a.Percentile(p), b.Percentile(p))
			}
		}
		if a.Percentile(math.NaN()) != 0 || b.Percentile(math.NaN()) != 0 {
			t.Fatalf("iter %d: Percentile(NaN) must be 0", iter)
		}
	}
}

// TestHistogramMergeMatchesDirectObserve: merging shards in a random order
// equals observing the concatenated stream directly, bucket for bucket and
// with an identical accumulator, for any split — including a first shard
// past the 65,536 samples a retained-sample histogram kept, which must not
// crowd a later shard out of the percentiles.
func TestHistogramMergeMatchesDirectObserve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	mergeAndCompare := func(iter int, shards [][]int64, order []int) *Histogram {
		direct := DefaultLatencyHistogram()
		for _, s := range shards {
			for _, v := range s {
				direct.Observe(v)
			}
		}
		merged := DefaultLatencyHistogram()
		for _, k := range order {
			h := DefaultLatencyHistogram()
			for _, v := range shards[k] {
				h.Observe(v)
			}
			merged.Merge(h)
		}
		if merged.acc != direct.acc {
			t.Fatalf("iter %d: merged accumulator %+v != direct %+v", iter, merged.acc, direct.acc)
		}
		if !slices.Equal(merged.counts, direct.counts) {
			t.Fatalf("iter %d: merged bucket counts differ from direct observation", iter)
		}
		return merged
	}

	big := make([]int64, 1<<16+1000)
	for i := range big {
		big[i] = 100
	}
	if got := mergeAndCompare(-1, [][]int64{big, {10_000}}, []int{0, 1}).Percentile(100); got != 10_000 {
		t.Fatalf("max after merging a small shard behind a big one = %d, want 10000", got)
	}

	for iter := 0; iter < 1000; iter++ {
		n := rng.Intn(300)
		var shards [][]int64
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			shard := make([]int64, hi-lo)
			for i := range shard {
				shard[i] = int64(rng.Intn(1 << 28))
			}
			shards = append(shards, shard)
			lo = hi
		}
		mergeAndCompare(iter, shards, rng.Perm(len(shards)))
	}
}

// TestHistogramPercentileErrorBound is the accuracy contract against an exact
// sort: over 1000 random sample sets drawn from uniform, log-normal, bimodal
// and heavy-tailed distributions, every Percentile(p) lies within 1/128
// relative error of the exact nearest-rank sample, and the edges are pinned —
// empty gives 0, p <= 0 the minimum, p >= 100 the maximum, NaN gives 0, and a
// single sample is exact.
func TestHistogramPercentileErrorBound(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	draws := []struct {
		name string
		draw func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(2_000_000) }},
		{"log-normal", func() int64 { return int64(math.Exp(9 + 2*rng.NormFloat64())) }},
		{"bimodal", func() int64 {
			if rng.Intn(10) < 9 {
				return 1_000 + rng.Int63n(500) // hits
			}
			return 900_000 + rng.Int63n(200_000) // misses
		}},
		// Pareto with shape 1.1: the mean barely exists, the tail spans decades.
		{"heavy-tail", func() int64 { return int64(100 * math.Pow(1-rng.Float64(), -1/1.1)) }},
	}
	if got := DefaultLatencyHistogram().Percentile(50); got != 0 {
		t.Fatalf("empty Percentile(50) = %d, want 0", got)
	}
	for iter := 0; iter < 1000; iter++ {
		d := draws[iter%len(draws)]
		n := 1 + rng.Intn(2000)
		if iter < len(draws) {
			n = 1
		}
		vals := make([]int64, n)
		h := DefaultLatencyHistogram()
		for i := range vals {
			vals[i] = d.draw()
			h.Observe(vals[i])
		}
		slices.Sort(vals)
		for _, p := range []float64{0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 100 * rng.Float64()} {
			rank := max(int(math.Ceil(p/100*float64(n))), 1)
			exact := vals[rank-1]
			got := h.Percentile(p)
			if math.Abs(float64(got-exact)) > float64(exact)/128 {
				t.Fatalf("iter %d (%s, n=%d): p%v = %d, exact nearest-rank %d: off by more than 1/128", iter, d.name, n, p, got, exact)
			}
			if n == 1 && got != exact {
				t.Fatalf("iter %d (%s): single-sample p%v = %d, want exactly %d", iter, d.name, p, got, exact)
			}
		}
		for _, p := range []float64{0, -5, math.Inf(-1)} {
			if got := h.Percentile(p); got != vals[0] {
				t.Fatalf("iter %d (%s): p%v = %d, want the minimum %d", iter, d.name, p, got, vals[0])
			}
		}
		for _, p := range []float64{100, 250, math.Inf(1)} {
			if got := h.Percentile(p); got != vals[n-1] {
				t.Fatalf("iter %d (%s): p%v = %d, want the maximum %d", iter, d.name, p, got, vals[n-1])
			}
		}
		if got := h.Percentile(math.NaN()); got != 0 {
			t.Fatalf("iter %d (%s): Percentile(NaN) = %d, want 0", iter, d.name, got)
		}
	}
}

// TestHistogramResetReuse: a histogram reset and reused as a merge target,
// the way Service.Snapshot and the controller reuse theirs, answers exactly
// like a fresh one. Merge touches only the buckets between a source's minimum
// and maximum, so the sources span random octave ranges (negative samples
// included) below, above and across the target's storage, and Reset must
// leave every bucket zero.
func TestHistogramResetReuse(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	var reused Histogram
	for iter := 0; iter < 500; iter++ {
		reused.Reset()
		for i, c := range reused.counts {
			if c != 0 {
				t.Fatalf("iter %d: reset left bucket %d = %d", iter, i, c)
			}
		}
		fresh := DefaultLatencyHistogram()
		for n := rng.Intn(4); n > 0; n-- {
			h := DefaultLatencyHistogram()
			base := int64(1) << rng.Intn(36)
			for k := rng.Intn(50); k > 0; k-- {
				v := base + rng.Int63n(4*base)
				if rng.Intn(20) == 0 {
					v = -v
				}
				h.Observe(v)
			}
			fresh.Merge(h)
			reused.Merge(h)
		}
		if reused.acc != fresh.acc || !reflect.DeepEqual(reused.State(), fresh.State()) {
			t.Fatalf("iter %d: reused target %+v differs from fresh %+v", iter, reused.State(), fresh.State())
		}
		for _, p := range []float64{1, 50, 99} {
			if got, want := reused.Percentile(p), fresh.Percentile(p); got != want {
				t.Fatalf("iter %d: p%v = %d, fresh target says %d", iter, p, got, want)
			}
		}
	}
}

func TestHistogramReset(t *testing.T) {
	t.Parallel()
	h := DefaultLatencyHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 100)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Percentile(99) != 0 {
		t.Fatalf("reset left state: count=%d sum=%d", h.Count(), h.Sum())
	}
	for i, c := range h.counts {
		if c != 0 {
			t.Fatalf("reset left bucket %d = %d", i, c)
		}
	}
	h.Observe(500)
	if h.Count() != 1 || h.Sum() != 500 {
		t.Fatal("histogram unusable after reset")
	}
}
