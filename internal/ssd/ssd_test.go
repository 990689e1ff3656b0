package ssd

import (
	"testing"
	"time"
)

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{TLC(), SLC(), QLC()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		if p.WriteLatency <= p.ReadLatency {
			t.Errorf("%s: write latency should exceed read latency", p.Name)
		}
	}
	tlc := TLC()
	if tlc.ReadLatency != 75*time.Microsecond || tlc.WriteLatency != 900*time.Microsecond {
		t.Errorf("TLC latencies = %v/%v, want 75us/900us", tlc.ReadLatency, tlc.WriteLatency)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := (Profile{}).Validate(); err == nil {
		t.Error("zero profile accepted")
	}
	if err := (Profile{ReadLatency: time.Microsecond}).Validate(); err == nil {
		t.Error("zero write latency accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Profile{}, 4); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := New(TLC(), 0); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestAccessLatencies(t *testing.T) {
	d, err := New(TLC(), 8)
	if err != nil {
		t.Fatal(err)
	}
	done := d.Access(OpRead, 0, 0)
	if done != 75_000 {
		t.Errorf("read done at %d ns, want 75000", done)
	}
	done = d.Access(OpWrite, 1, 0)
	if done != 900_000 {
		t.Errorf("write done at %d ns, want 900000", done)
	}
	if d.ReadPenalty() != 75_000 || d.WritePenalty() != 900_000 {
		t.Error("penalty constants wrong")
	}
}

func TestChannelQueueing(t *testing.T) {
	d, err := New(TLC(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two reads to the same channel (pages 0 and 2 both map to channel 0).
	first := d.Access(OpRead, 0, 0)
	second := d.Access(OpRead, 2, 0)
	if second != first+75_000 {
		t.Errorf("queued read done at %d, want %d", second, first+75_000)
	}
	// A read on the other channel proceeds in parallel.
	other := d.Access(OpRead, 1, 0)
	if other != 75_000 {
		t.Errorf("independent channel done at %d, want 75000", other)
	}
}

func TestQueueingOnlyWhenBusy(t *testing.T) {
	d, _ := New(TLC(), 1)
	d.Access(OpRead, 0, 0)
	// Issue after the channel is free again: no queueing.
	done := d.Access(OpRead, 0, 200_000)
	if done != 275_000 {
		t.Errorf("done = %d, want 275000", done)
	}
	st := d.Stats()
	if st.Reads != 2 {
		t.Errorf("reads = %d", st.Reads)
	}
}

func TestStats(t *testing.T) {
	d, _ := New(TLC(), 4)
	d.Access(OpRead, 0, 0)
	d.Access(OpWrite, 1, 0)
	d.Access(OpRead, 2, 0)
	st := d.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if d.Channels() != 4 || d.Profile().Name != "tlc" {
		t.Error("accessors wrong")
	}
}

// TestStateRoundTrip: a device restored from another's exported state serves
// the next requests exactly as the original does — same completion times
// (the channel busy horizons carry over) and counters — and a state with a
// different channel count is refused.
func TestStateRoundTrip(t *testing.T) {
	orig, _ := New(TLC(), 2)
	for i := uint64(0); i < 6; i++ {
		op := OpRead
		if i%3 == 0 {
			op = OpWrite
		}
		orig.Access(op, i, int64(i)*10_000)
	}
	restored, _ := New(TLC(), 2)
	if err := restored.RestoreState(orig.State()); err != nil {
		t.Fatal(err)
	}
	// Both channels are busy until past 1 ms, so these requests
	// queue: their completion times depend on the restored horizons.
	for i := uint64(0); i < 5; i++ {
		op := OpRead
		if i%2 == 0 {
			op = OpWrite
		}
		now := 100_000 + int64(i)*5_000
		if a, b := orig.Access(op, i, now), restored.Access(op, i, now); a != b {
			t.Errorf("access %d done at %d on the original, %d restored", i, a, b)
		}
	}
	if a, b := orig.Stats(), restored.Stats(); a != b {
		t.Errorf("stats diverged: original %+v, restored %+v", a, b)
	}
	other, _ := New(TLC(), 3)
	if err := other.RestoreState(orig.State()); err == nil {
		t.Error("2-channel state restored into a 3-channel device")
	}
}
