package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestHistogramStateRoundTrip: State/RestoreState must reproduce the
// histogram exactly — bucket counts and accumulator — and survive a JSON
// round trip, since the serving checkpoint ships the state as JSON.
func TestHistogramStateRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	h := DefaultLatencyHistogram()
	for i := 0; i < 5000; i++ {
		h.Observe(int64(rng.ExpFloat64() * 2e5))
	}
	h.Observe(3) // exact bucket

	data, err := json.Marshal(h.State())
	if err != nil {
		t.Fatal(err)
	}
	var st HistogramState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored := DefaultLatencyHistogram()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), h.State()) {
		t.Fatal("state round trip not exact")
	}
	if restored.Count() != h.Count() || restored.Sum() != h.Sum() {
		t.Errorf("count/sum diverged: %d/%d vs %d/%d", restored.Count(), restored.Sum(), h.Count(), h.Sum())
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if restored.Percentile(p) != h.Percentile(p) {
			t.Errorf("p%.0f diverged after restore", p)
		}
	}
	// The restored histogram continues exactly like the original.
	h.Observe(12345)
	restored.Observe(12345)
	if !reflect.DeepEqual(restored.State(), h.State()) {
		t.Error("restored histogram diverged on the next observation")
	}

	// Invalid states are rejected.
	bad := map[string]HistogramState{
		"bucket out of range":   {Buckets: map[int]uint64{numBuckets: 1}, Acc: AccumulatorState{Count: 1}},
		"negative bucket":       {Buckets: map[int]uint64{-1: 1}, Acc: AccumulatorState{Count: 1}},
		"empty bucket entry":    {Buckets: map[int]uint64{5: 0}},
		"counts exceed count":   {Buckets: map[int]uint64{5: 2, 9: 1}, Acc: AccumulatorState{Count: 2}},
		"counts short of count": {Buckets: map[int]uint64{5: 1}, Acc: AccumulatorState{Count: 2}},
		"negative count":        {Acc: AccumulatorState{Count: -1}},
		// Counts whose sum wraps around uint64 to the sample count.
		"overflowing counts": {Buckets: map[int]uint64{5: math.MaxUint64, 9: 2}, Acc: AccumulatorState{Count: 1}},
	}
	for name, st := range bad {
		if err := DefaultLatencyHistogram().RestoreState(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzHistogramState feeds arbitrary JSON to RestoreState, the checkpoint's
// histogram decoder: it must never panic, and every state it accepts must
// export back to the same JSON bytes and answer percentile queries.
func FuzzHistogramState(f *testing.F) {
	h := DefaultLatencyHistogram()
	for _, v := range []int64{3, 70, 1463, 900_000, 1 << 40} {
		h.Observe(v)
	}
	seed, err := json.Marshal(h.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"buckets":{"3712":1},"acc":{"count":1}}`))
	f.Add([]byte(`{"buckets":{"5":0,"6":1},"acc":{"count":1,"sum":6,"min":6,"max":6}}`))
	f.Add([]byte(`{"buckets":{"5":18446744073709551615,"9":2},"acc":{"count":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st HistogramState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		var h Histogram
		if h.RestoreState(st) != nil {
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(h.State())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("accepted state re-marshals differently:\n in: %s\nout: %s", want, got)
		}
		for _, p := range []float64{0, 1, 50, 99, 100} {
			h.Percentile(p)
		}
	})
}

// TestAccumulatorWelfordStateRoundTrip covers the two scalar accumulators'
// exports.
func TestAccumulatorWelfordStateRoundTrip(t *testing.T) {
	t.Parallel()
	var a LatencyAccumulator
	var w Welford
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*1e4 + 5e4
		a.Observe(int64(v))
		w.Observe(v)
	}
	var a2 LatencyAccumulator
	a2.RestoreState(a.State())
	if a2 != a {
		t.Errorf("accumulator round trip: %+v vs %+v", a2, a)
	}
	var w2 Welford
	w2.RestoreState(w.State())
	if w2 != w {
		t.Errorf("welford round trip: %+v vs %+v", w2, w)
	}
	if w2.Mean() != w.Mean() || w2.Std() != w.Std() {
		t.Error("welford statistics diverged")
	}
}
