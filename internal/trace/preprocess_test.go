package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPageIndex(t *testing.T) {
	cases := []struct {
		addr uint64
		page uint64
	}{
		{0, 0},
		{4095, 0},
		{4096, 1},
		{8191, 1},
		{1 << 30, 1 << 18},
	}
	for _, c := range cases {
		r := Record{Addr: c.addr}
		if got := r.Page(); got != c.page {
			t.Errorf("Page(%d) = %d, want %d", c.addr, got, c.page)
		}
	}
}

func TestTrim(t *testing.T) {
	tr := make(Trace, 100)
	tr.Stamp()
	kept := Trim(tr, DefaultTransformConfig())
	if len(kept) != 70 {
		t.Fatalf("Trim kept %d records, want 70", len(kept))
	}
	// First kept record should be original index 20 (first 20% dropped).
	if kept[0].Time != 20 {
		t.Errorf("first kept Time = %d, want 20", kept[0].Time)
	}
	if kept[len(kept)-1].Time != 89 {
		t.Errorf("last kept Time = %d, want 89", kept[len(kept)-1].Time)
	}
}

func TestTrimEdgeCases(t *testing.T) {
	if got := Trim(Trace{}, DefaultTransformConfig()); len(got) != 0 {
		t.Error("trimming empty trace should be empty")
	}
	// Fractions summing >= 1 are ignored rather than producing nothing.
	cfg := TransformConfig{WarmupFrac: 0.6, TailFrac: 0.6}
	tr := make(Trace, 10)
	if got := Trim(tr, cfg); len(got) != 10 {
		t.Errorf("invalid fractions should disable trimming, kept %d", len(got))
	}
	// Zero-value config uses defaults for window params but keeps 0 trims.
	cfg2 := TransformConfig{}
	if got := Trim(tr, cfg2); len(got) != 10 {
		t.Errorf("zero config should keep everything, kept %d", len(got))
	}
}

// TestAlgorithm1Verbatim checks Timestamp against a direct transliteration of
// the paper's Algorithm 1 pseudocode — a stateful cursor advanced once per
// request — at every arrival index of 700,000 requests, which wraps even the
// paper's (32, 10000) windowing twice. Every case must also emit
// LenAccessShot-1 as its largest timestamp.
func TestAlgorithm1Verbatim(t *testing.T) {
	const n = 700_000
	for _, c := range []struct{ window, shot int }{{4, 3}, {2, 3}, {1, 5}, {32, 10000}} {
		timestamp, index := 0, 0
		maxSeen, wraps := 0, 0
		for i := 0; i < n; i++ {
			// Algorithm 1, line by line: the window rollover check precedes
			// the shot wrap check, and the index increments after both.
			if index >= c.window {
				timestamp++
				index = 0
			}
			if timestamp >= c.shot {
				timestamp = 0
				wraps++
			}
			index++

			got := Timestamp(uint64(i), c.window, c.shot)
			if got != timestamp {
				t.Fatalf("(%d, %d) request %d: Timestamp = %d, Algorithm 1 = %d", c.window, c.shot, i, got, timestamp)
			}
			maxSeen = max(maxSeen, got)
		}
		if maxSeen != c.shot-1 {
			t.Errorf("(%d, %d): largest timestamp %d, want %d", c.window, c.shot, maxSeen, c.shot-1)
		}
		if wraps < 2 {
			t.Errorf("(%d, %d): %d requests wrapped the access shot %d times, want >= 2", c.window, c.shot, n, wraps)
		}
	}
}

// TestTimestampTransformerWindowing pins the paper's (32, 10000) windowing
// by hand: the first 32 requests share timestamp 0, the next 32 share 1.
func TestTimestampTransformerWindowing(t *testing.T) {
	for i := uint64(0); i < 64; i++ {
		want := int(i / 32)
		if got := Timestamp(i, 32, 10000); got != want {
			t.Fatalf("request %d: timestamp = %d, want %d", i, got, want)
		}
	}
}

func TestTimestampTransformerShotWrap(t *testing.T) {
	var got []int
	for i := uint64(0); i < 14; i++ {
		got = append(got, Timestamp(i, 2, 3))
	}
	// windows of 2: ts 0,0 1,1 2,2 then wrap to 0,0 1,1 2,2 0,0
	want := []int{0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestTimestampTransformerMaxTimestamp(t *testing.T) {
	maxSeen := 0
	for i := uint64(0); i < 1000; i++ {
		maxSeen = max(maxSeen, Timestamp(i, 1, 5))
	}
	if maxSeen != 4 {
		t.Errorf("max emitted = %d, want LenAccessShot-1 = 4", maxSeen)
	}
}

// Property: the timestamp is always within [0, LenAccessShot).
func TestTimestampBoundsProperty(t *testing.T) {
	f := func(w, s uint8, i uint64) bool {
		shot := int(s%50) + 1
		v := Timestamp(i, int(w%60)+1, shot)
		return v >= 0 && v < shot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreprocessPipeline(t *testing.T) {
	// 1000 records over pages 0..9.
	tr := make(Trace, 1000)
	for i := range tr {
		tr[i] = Record{Op: Read, Addr: uint64(i%10) * PageSize}
	}
	tr.Stamp()
	samples := Preprocess(tr, DefaultTransformConfig())
	if len(samples) != 700 {
		t.Fatalf("Preprocess kept %d samples, want 700", len(samples))
	}
	// First sample corresponds to original record 200 → page 0.
	if samples[0].Page != 0 {
		t.Errorf("first sample page = %v, want 0", samples[0].Page)
	}
	// Timestamps restart at 0 for the retained window.
	if samples[0].Timestamp != 0 {
		t.Errorf("first sample timestamp = %v, want 0", samples[0].Timestamp)
	}
	// With LenWindow=32, sample 32 is in window 1.
	if samples[32].Timestamp != 1 {
		t.Errorf("sample 32 timestamp = %v, want 1", samples[32].Timestamp)
	}
}

func TestFitNormalizer(t *testing.T) {
	samples := []Sample{
		{Page: 100, Timestamp: 0},
		{Page: 300, Timestamp: 50},
		{Page: 200, Timestamp: 100},
	}
	n := FitNormalizer(samples)
	out := n.ApplyAll(samples)
	if out[0].Page != 0 || out[1].Page != 1 {
		t.Errorf("page normalization wrong: %+v", out)
	}
	if out[0].Timestamp != 0 || out[2].Timestamp != 1 {
		t.Errorf("time normalization wrong: %+v", out)
	}
	if out[2].Page != 0.5 {
		t.Errorf("midpoint page = %v, want 0.5", out[2].Page)
	}
	p, tm := n.ApplyPageTime(200, 50)
	if p != 0.5 || tm != 0.5 {
		t.Errorf("ApplyPageTime = %v, %v, want 0.5, 0.5", p, tm)
	}
}

func TestFitNormalizerDegenerate(t *testing.T) {
	// All samples identical: scales stay 1, offsets map to 0.
	samples := []Sample{{Page: 7, Timestamp: 3}, {Page: 7, Timestamp: 3}}
	n := FitNormalizer(samples)
	out := n.Apply(samples[0])
	if out.Page != 0 || out.Timestamp != 0 {
		t.Errorf("degenerate normalization = %+v, want zeros", out)
	}
	if FitNormalizer(nil).PageScale != 1 {
		t.Error("empty normalizer should have unit scale")
	}
}

// Property: normalized samples always land in [0,1] for the fitted range.
func TestNormalizerRangeProperty(t *testing.T) {
	f := func(pages []uint32, times []uint16) bool {
		if len(pages) == 0 {
			return true
		}
		n := len(pages)
		if len(times) < n {
			n = len(times)
		}
		if n == 0 {
			return true
		}
		samples := make([]Sample, n)
		for i := 0; i < n; i++ {
			samples[i] = Sample{Page: float64(pages[i]), Timestamp: float64(times[i])}
		}
		norm := FitNormalizer(samples)
		for _, s := range norm.ApplyAll(samples) {
			if s.Page < -1e-12 || s.Page > 1+1e-12 || math.IsNaN(s.Page) {
				return false
			}
			if s.Timestamp < -1e-12 || s.Timestamp > 1+1e-12 || math.IsNaN(s.Timestamp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
