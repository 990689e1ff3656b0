package hbm

import (
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{Banks: 0, AccessLatency: time.Microsecond}).Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	if err := (Config{Banks: 4}).Validate(); err == nil {
		t.Error("zero latency accepted")
	}
	if _, err := New(Config{Banks: 4}); err == nil {
		t.Error("New accepted an invalid config")
	}
}

func TestMemoryAccess(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := m.Access(0, 0)
	if done != 1000 {
		t.Errorf("access done at %d ns, want 1000", done)
	}
	if m.HitLatency() != 1000 {
		t.Errorf("HitLatency = %d", m.HitLatency())
	}
}

func TestBankConflict(t *testing.T) {
	m, _ := New(Config{Banks: 2, AccessLatency: time.Microsecond})
	// Pages 0 and 2 map to bank 0: second queues behind first.
	m.Access(0, 0)
	done := m.Access(2, 0)
	if done != 2000 {
		t.Errorf("conflicting access done at %d, want 2000", done)
	}
	// Page 1 on bank 1 proceeds independently.
	if done := m.Access(1, 0); done != 1000 {
		t.Errorf("independent bank done at %d, want 1000", done)
	}
}

// TestStateRoundTrip: a memory restored from another's exported state serves
// the next accesses exactly as the original does — same completion times
// (the bank busy horizons carry over) — and a state with a different bank
// count is refused.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{Banks: 4, AccessLatency: time.Microsecond}
	orig, _ := New(cfg)
	for page := uint64(0); page < 10; page++ {
		orig.Access(page, int64(page)*100)
	}
	restored, _ := New(cfg)
	if err := restored.RestoreState(orig.State()); err != nil {
		t.Fatal(err)
	}
	// Every bank is busy until past 2 us, so these accesses queue: their
	// completion times depend on the restored horizons.
	for page := uint64(0); page < 6; page++ {
		now := 1000 + int64(page)*200
		if a, b := orig.Access(page, now), restored.Access(page, now); a != b {
			t.Errorf("page %d done at %d on the original, %d restored", page, a, b)
		}
	}
	other, _ := New(Config{Banks: 8, AccessLatency: time.Microsecond})
	if err := other.RestoreState(orig.State()); err == nil {
		t.Error("4-bank state restored into an 8-bank memory")
	}
}
