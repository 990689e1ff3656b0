package cxl

import (
	"testing"
	"time"
)

func TestLinkTransferLatency(t *testing.T) {
	l, err := NewLink(DefaultLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Request without payload: one-way latency only.
	arrive := l.Transfer(Message{Type: MemRd}, 0)
	if arrive != 150 {
		t.Errorf("no-payload transfer = %d ns, want 150", arrive)
	}
	// 4 KiB payload at 25 B/ns adds ~163 ns serialization.
	arrive = l.Transfer(Message{Type: Cmp, PayloadBytes: 4096}, 0)
	want := int64(150 + 4096/25)
	if arrive != want {
		t.Errorf("payload transfer = %d ns, want %d", arrive, want)
	}
}

func TestLinkRoundTrip(t *testing.T) {
	l, _ := NewLink(DefaultLinkConfig())
	// Read: request (no payload) + completion (4 KiB payload).
	done := l.RoundTrip(true, 4096, 0)
	want := int64(150 + 150 + 4096/25)
	if done != want {
		t.Errorf("read round trip = %d, want %d", done, want)
	}
	// Write: payload travels on the request.
	done = l.RoundTrip(false, 4096, 1000)
	if done != 1000+want {
		t.Errorf("write round trip = %d, want %d", done, 1000+want)
	}
}

func TestLinkFlitAccounting(t *testing.T) {
	l, _ := NewLink(DefaultLinkConfig())
	l.Transfer(Message{Type: MemRd}, 0)                    // 1 flit
	l.Transfer(Message{Type: Cmp, PayloadBytes: 4096}, 0)  // 64 flits
	l.Transfer(Message{Type: MemWr, PayloadBytes: 100}, 0) // 2 flits
	st := l.Stats()
	if st.Messages != 3 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.Flits != 1+64+2 {
		t.Errorf("flits = %d, want 67", st.Flits)
	}
	if st.Bytes != 4196 {
		t.Errorf("bytes = %d", st.Bytes)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	if err := DefaultLinkConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []LinkConfig{
		{},
		{OneWayLatency: time.Nanosecond, BytesPerNs: 0, FlitBytes: 64},
		{OneWayLatency: time.Nanosecond, BytesPerNs: 1, FlitBytes: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewLink(LinkConfig{}); err == nil {
		t.Error("NewLink accepted invalid config")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MemRd.String() != "MemRd" || MemWr.String() != "MemWr" || Cmp.String() != "Cmp" {
		t.Error("message type names wrong")
	}
}

// TestRestoreStats: a link restored from another's counters accounts the
// next transfers exactly as the original does. The transfer model is a pure
// function of the config, so completion times match too.
func TestRestoreStats(t *testing.T) {
	orig, _ := NewLink(DefaultLinkConfig())
	orig.RoundTrip(true, 4096, 0)
	orig.RoundTrip(false, 100, 500)
	orig.Transfer(Message{Type: MemRd}, 900)
	restored, _ := NewLink(DefaultLinkConfig())
	restored.RestoreStats(orig.Stats())
	if orig.Stats() != restored.Stats() {
		t.Fatalf("restored stats %+v, want %+v", restored.Stats(), orig.Stats())
	}
	for i, read := range []bool{true, false, true} {
		now := int64(1000 + i*300)
		if a, b := orig.RoundTrip(read, 4096, now), restored.RoundTrip(read, 4096, now); a != b {
			t.Errorf("round trip %d done at %d on the original, %d restored", i, a, b)
		}
	}
	if a, b := orig.Stats(), restored.Stats(); a != b {
		t.Errorf("stats diverged: original %+v, restored %+v", a, b)
	}
}
