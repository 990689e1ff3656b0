package workload_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func newClosed(t *testing.T, users int, rate float64) *workload.ClosedLoop {
	t.Helper()
	cl, err := workload.NewClosedLoop(workload.NewDLRM(), workload.OpenLoopConfig{Seed: 7},
		workload.ClosedLoopConfig{Users: users, RatePerSec: rate})
	if err != nil {
		t.Fatalf("NewClosedLoop: %v", err)
	}
	return cl
}

func TestClosedLoopConfigValidate(t *testing.T) {
	bad := []workload.ClosedLoopConfig{
		{Users: 0, RatePerSec: 1},
		{Users: 4, RatePerSec: 0},
		{Users: 4, RatePerSec: 1, Alpha: 1.5},
	}
	for _, cfg := range bad {
		if _, err := workload.NewClosedLoop(workload.NewDLRM(), workload.OpenLoopConfig{}, cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
}

// At zero service latency a closed loop's aggregate offered rate equals an
// open loop's configured rate: Users requests every think time.
func TestClosedLoopZeroLatencyRateMatchesOpenLoop(t *testing.T) {
	const rate = 10_000.0
	cl := newClosed(t, 8, rate)
	n := 4096
	buf := make([]trace.Record, n)
	cl.Next(buf)
	span := float64(buf[n-1].Time) // first arrivals are at 0
	gotRate := float64(n-8) / span * 1e9
	if gotRate < rate*0.95 || gotRate > rate*1.05 {
		t.Fatalf("zero-latency offered rate %.0f, want ~%.0f", gotRate, rate)
	}
}

// The feedback loop: a latency observation slows arrivals down, so fewer
// requests land inside a fixed virtual-time window than in the unloaded
// stream — offered load drops when the device saturates.
func TestClosedLoopLatencyFeedbackStretchesArrivals(t *testing.T) {
	fast := newClosed(t, 4, 10_000)
	slow := newClosed(t, 4, 10_000)
	slow.ObserveLatency(5e6) // 5 ms completions dominate the 0.4 ms think time
	n := 1024
	fbuf := make([]trace.Record, n)
	sbuf := make([]trace.Record, n)
	fast.Next(fbuf)
	slow.Next(sbuf)
	const windowNs = 50e6
	countIn := func(buf []trace.Record) int {
		c := 0
		for _, r := range buf {
			if float64(r.Time) < windowNs {
				c++
			}
		}
		return c
	}
	nf, ns := countIn(fbuf), countIn(sbuf)
	if ns >= nf {
		t.Fatalf("saturated stream emitted %d arrivals in the window, unloaded %d — no feedback", ns, nf)
	}
	// Saturated inter-arrival ~ (lat+think)/users; check the right ballpark.
	if ns == 0 || ns > nf/2 {
		t.Fatalf("saturated window count %d outside expected range (unloaded %d)", ns, nf)
	}
}

// The EWMA folds observations in order and SetRate retargets think time.
func TestClosedLoopObserveAndSetRate(t *testing.T) {
	cl := newClosed(t, 2, 1000)
	cl.ObserveLatency(1000)
	if got := cl.State().LatEstNs; got != 1000 {
		t.Fatalf("first observation EWMA = %v, want 1000", got)
	}
	cl.ObserveLatency(2000)
	if got := cl.State().LatEstNs; got != 0.2*2000+0.8*1000 {
		t.Fatalf("second observation EWMA = %v", got)
	}
	cl.ObserveLatency(-5) // negative observations are dropped
	if got := cl.State().LatEstNs; got != 0.2*2000+0.8*1000 {
		t.Fatalf("negative observation changed EWMA to %v", got)
	}
	cl.SetRate(2000)
	if got := cl.Rate(); got != 2000 {
		t.Fatalf("rate after SetRate = %v", got)
	}
}

// A restored closed loop continues bit-identically to one that never paused,
// including the user clocks and the latency estimate.
func TestClosedLoopStateRoundTrip(t *testing.T) {
	a := newClosed(t, 4, 5000)
	buf := make([]trace.Record, 700)
	a.Next(buf)
	a.ObserveLatency(3e5)
	a.Next(buf[:100])

	b := newClosed(t, 4, 5000)
	if err := b.RestoreState(a.State()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	av := make([]trace.Record, 500)
	bv := make([]trace.Record, 500)
	a.Next(av)
	b.Next(bv)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("restored stream diverged at %d: %+v vs %+v", i, av[i], bv[i])
		}
	}

	c := newClosed(t, 3, 5000)
	if err := c.RestoreState(a.State()); err == nil {
		t.Fatalf("restore with mismatched user count accepted")
	}
}

// OpenLoop.SetGenerator swaps the source mid-segment: the swap is visible at
// the very next record, and a stream built fresh on the new generator with
// the same restored cursor produces the identical remainder (the replay
// property resume depends on).
func TestOpenLoopSetGeneratorMidSegment(t *testing.T) {
	ol, err := workload.NewOpenLoop(workload.NewDLRM(), workload.OpenLoopConfig{RatePerSec: 1000, Seed: 3})
	if err != nil {
		t.Fatalf("NewOpenLoop: %v", err)
	}
	buf := make([]trace.Record, 300)
	ol.Next(buf)
	ol.SetGenerator(workload.NewStream())
	st := ol.State()
	a := make([]trace.Record, 400)
	ol.Next(a)

	re, err := workload.NewOpenLoop(workload.NewStream(), workload.OpenLoopConfig{RatePerSec: 1000, Seed: 3})
	if err != nil {
		t.Fatalf("NewOpenLoop: %v", err)
	}
	if err := re.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	b := make([]trace.Record, 400)
	re.Next(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-swap stream not replayable at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A departed stream's records are discarded at the merge point while its
// clock keeps advancing, so a rejoin resumes at the current virtual time
// with no backlog burst.
func TestMuxSetActiveDiscardsAndResumes(t *testing.T) {
	mk := func() *workload.Mux {
		a, _ := workload.NewOpenLoop(workload.NewDLRM(), workload.OpenLoopConfig{RatePerSec: 1000, Seed: 1})
		b, _ := workload.NewOpenLoop(workload.NewParsec(), workload.OpenLoopConfig{RatePerSec: 1000, Seed: 2})
		m, err := workload.NewMux([]workload.MuxStream{{Stream: a}, {Stream: b, OffsetPages: 1 << 20}})
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		return m
	}
	m := mk()
	buf := make([]workload.MuxRecord, 256)
	m.Next(buf)
	m.SetActive(1, false)
	m.Next(buf)
	for _, r := range buf {
		if r.Stream == 1 {
			t.Fatalf("departed stream emitted a record: %+v", r)
		}
	}
	m.SetActive(1, true)
	m.Next(buf)
	// The rejoined stream's first record must not predate the already-merged
	// output (its clock advanced while departed).
	seen := false
	for _, r := range buf {
		if r.Stream == 1 {
			seen = true
			if r.Rec.Time < buf[0].Rec.Time {
				t.Fatalf("rejoined stream burst from the past: %+v before %+v", r, buf[0])
			}
		}
	}
	if !seen {
		t.Fatalf("rejoined stream never emitted")
	}
}

// Mux state round-trips through churn and closed-loop streams: the restored
// mux continues bit-identically, active flags and user clocks included.
func TestMuxStateRoundTripWithChurnAndClosedLoops(t *testing.T) {
	mk := func() *workload.Mux {
		a, err := workload.NewClosedLoop(workload.NewDLRM(), workload.OpenLoopConfig{Seed: 1},
			workload.ClosedLoopConfig{Users: 4, RatePerSec: 2000})
		if err != nil {
			t.Fatalf("NewClosedLoop: %v", err)
		}
		b, err := workload.NewClosedLoop(workload.NewParsec(), workload.OpenLoopConfig{Seed: 2},
			workload.ClosedLoopConfig{Users: 2, RatePerSec: 1000})
		if err != nil {
			t.Fatalf("NewClosedLoop: %v", err)
		}
		m, err := workload.NewMux([]workload.MuxStream{{Stream: a}, {Stream: b, OffsetPages: 1 << 20}})
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		return m
	}
	m := mk()
	buf := make([]workload.MuxRecord, 300)
	m.Next(buf)
	m.ObserveLatency(0, 2e5)
	m.ObserveLatency(1, 4e5)
	m.SetActive(1, false)
	m.Next(buf[:64])
	st := m.State()
	if st.Active == nil || st.Active[1] {
		t.Fatalf("state did not record the departed stream: %+v", st.Active)
	}
	if st.Closed == nil {
		t.Fatalf("state did not record closed-loop cursors")
	}

	re := mk()
	if err := re.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if re.Active(1) {
		t.Fatalf("restored mux lost the departed flag")
	}
	av := make([]workload.MuxRecord, 400)
	bv := make([]workload.MuxRecord, 400)
	m.Next(av)
	re.Next(bv)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("restored mux diverged at %d: %+v vs %+v", i, av[i], bv[i])
		}
	}
}
