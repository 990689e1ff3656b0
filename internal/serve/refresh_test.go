package serve

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// feed pushes a constant hit ratio n times and returns how many fires.
func feed(d *DriftDetector, hr float64, n int) int {
	fires := 0
	for i := 0; i < n; i++ {
		if d.Observe(hr) {
			fires++
		}
	}
	return fires
}

// TestDriftDetectorFiresOncePerEpisode pins the exactly-once contract: a
// sustained drop fires one refresh no matter how long it lasts, recovery
// re-arms, and a second episode fires exactly once more.
func TestDriftDetectorFiresOncePerEpisode(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Delta: 0.2, Sustain: 3, Warmup: 5, Alpha: 0.1})

	if got := feed(d, 0.9, 5); got != 0 {
		t.Fatalf("fired %d times during warmup", got)
	}
	if got := feed(d, 0.88, 10); got != 0 {
		t.Fatalf("fired %d times on steady traffic", got)
	}

	// Episode 1: a sustained collapse fires exactly once, however long the
	// episode drags on before the refreshed model takes hold.
	if got := feed(d, 0.3, 40); got != 1 {
		t.Fatalf("episode 1: fired %d times, want 1", got)
	}
	if !d.Fired() {
		t.Fatal("detector should still be inside the fired episode")
	}

	// Recovery re-arms after Sustain good batches.
	if got := feed(d, 0.88, 5); got != 0 {
		t.Fatalf("fired %d times during recovery", got)
	}
	if d.Fired() {
		t.Fatal("detector did not re-arm after recovery")
	}

	// Episode 2 fires exactly once more.
	if got := feed(d, 0.3, 20); got != 1 {
		t.Fatalf("episode 2: fired %d times, want 1", got)
	}
}

// TestDriftDetectorIgnoresBlips: fewer than Sustain bad batches never fire,
// and the baseline keeps tracking slow decay without firing.
func TestDriftDetectorIgnoresBlips(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Delta: 0.2, Sustain: 3, Warmup: 5, Alpha: 0.1})
	feed(d, 0.9, 8)
	for i := 0; i < 10; i++ {
		// Two bad batches then a good one, repeatedly: never sustained.
		if feed(d, 0.3, 2) != 0 || feed(d, 0.9, 1) != 0 {
			t.Fatal("blip fired the detector")
		}
	}
	// A slow decay the EWMA can follow: baseline tracks it down, no fire.
	d2 := NewDriftDetector(DriftConfig{Delta: 0.2, Sustain: 3, Warmup: 5, Alpha: 0.5})
	feed(d2, 0.9, 8)
	hr := 0.9
	for i := 0; i < 50; i++ {
		hr -= 0.005
		if d2.Observe(hr) {
			t.Fatalf("slow decay fired at step %d (baseline %.3f, hr %.3f)", i, d2.Baseline(), hr)
		}
	}
}

func TestDriftDetectorBaselineFrozenWhileFired(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Delta: 0.2, Sustain: 2, Warmup: 3, Alpha: 0.5})
	feed(d, 0.9, 3)
	feed(d, 0.3, 2) // fires
	base := d.Baseline()
	feed(d, 0.3, 20) // still drifting: baseline must not chase the collapse
	if d.Baseline() != base {
		t.Fatalf("baseline moved during fired episode: %v -> %v", base, d.Baseline())
	}
}

// TestSampleWindow: the ring keeps the newest pages in arrival order, and a
// snapshot stamps each with the Algorithm 1 timestamp of its arrival index
// (the oldest of n samples arrived at seq-n), before and after the wrap.
func TestSampleWindow(t *testing.T) {
	tcfg := trace.TransformConfig{LenWindow: 1, LenAccessShot: 3}
	w := newSampleWindow(RefreshConfig{Mode: RefreshSync, WindowSamples: 4})
	check := func(seq uint64, wantPages ...float64) {
		t.Helper()
		if w.size() != len(wantPages) {
			t.Fatalf("seq %d: size = %d, want %d", seq, w.size(), len(wantPages))
		}
		snap := w.snapshot(seq, tcfg)
		for i, s := range snap {
			arrival := seq - uint64(len(snap)) + uint64(i)
			if s.Page != wantPages[i] || s.Timestamp != float64(arrival%3) {
				t.Fatalf("seq %d: snapshot = %v, want pages %v stamped (arrival mod 3)", seq, snap, wantPages)
			}
		}
	}
	// Page i arrives at index i; pages are offset so they never equal their
	// timestamps.
	for i := 0; i < 3; i++ {
		w.push(float64(100 + i))
	}
	check(3, 100, 101, 102)
	for i := 3; i < 10; i++ {
		w.push(float64(100 + i))
	}
	// Chronological order, oldest first: arrivals 6..9, timestamps 0,1,2,0.
	check(10, 106, 107, 108, 109)
	if off := newSampleWindow(RefreshConfig{Mode: RefreshOff, WindowSamples: 4}); len(off.pages) != 0 {
		t.Fatalf("refresh-off ring holds %d pages of storage", len(off.pages))
	}
}

// TestTimestampForMatchesTransformer requires the timestamp the ingest loop
// assigns each request to equal a line-by-line Algorithm 1 cursor. The zero
// TransformConfig sanitizes to the paper's (32, 10000) windowing, and 700k
// requests cover two full access-shot wraps. With refresh enabled the refit
// window records every request's (page, timestamp); it is sized to hold the
// whole run, and the drift detector never arms, so no refit runs.
func TestTimestampForMatchesTransformer(t *testing.T) {
	const n, batch = 700_000, 512
	m := scoringTestModel(t)
	cfg := DefaultConfig()
	cfg.Partitions = 1
	cfg.Shards = 1
	cfg.Transform = trace.TransformConfig{}
	cfg.Refresh.Mode = RefreshSync
	cfg.Refresh.WindowSamples = n
	cfg.Refresh.MinSamples = n
	cfg.Refresh.Drift.Warmup = n
	b := &Bundle{Model: m, Scorer: m, Norm: trace.Normalizer{PageScale: 1.0 / 32, TimeScale: 1e-4}, Threshold: 1e-3}
	svc, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, batch)
	for seq := 0; seq < n; seq += batch {
		k := min(batch, n-seq)
		for i := range reqs[:k] {
			reqs[i] = Request{Page: uint64(seq+i) % 64, ArrivalNs: int64(seq+i) * 1000}
		}
		if err := svc.processBatch(reqs[:k]); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Refreshes() != 0 || svc.refresher.failed != 0 {
		t.Fatalf("refit ran: %d installed, %d failed", svc.Refreshes(), svc.refresher.failed)
	}
	got := svc.window.snapshot(svc.seq, svc.tcfg)
	if len(got) != n {
		t.Fatalf("window holds %d samples, want %d", len(got), n)
	}
	timestamp, index := 0, 0
	for seq, s := range got {
		if index >= 32 {
			timestamp++
			index = 0
		}
		if timestamp >= 10000 {
			timestamp = 0
		}
		index++
		if s.Page != float64(seq%64) || s.Timestamp != float64(timestamp) {
			t.Fatalf("seq %d: service recorded (%v, %v), Algorithm 1 gives (%d, %d)", seq, s.Page, s.Timestamp, seq%64, timestamp)
		}
	}
}

func TestParseRefreshMode(t *testing.T) {
	for s, want := range map[string]RefreshMode{"off": RefreshOff, "sync": RefreshSync} {
		got, err := ParseRefreshMode(s)
		if err != nil || got != want {
			t.Errorf("ParseRefreshMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() round trip: %q != %q", got.String(), s)
		}
	}
	for _, s := range []string{"async", "bogus"} {
		_, err := ParseRefreshMode(s)
		if err == nil {
			t.Errorf("%s mode accepted", s)
		} else if !strings.Contains(err.Error(), "off|sync)") {
			t.Errorf("%s: error %q does not name off|sync", s, err)
		}
	}
}
