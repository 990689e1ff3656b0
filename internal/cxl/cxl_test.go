package cxl

import (
	"testing"
	"time"
)

// TestLinkRoundTrip: a round trip is two one-way latencies plus the
// payload's serialization delay, offset by its start time.
func TestLinkRoundTrip(t *testing.T) {
	l, err := NewLink(DefaultLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 KiB page at 25 B/ns: 163 ns of serialization (truncated).
	page := int64(150 + 150 + 4096/25)
	for _, tc := range []struct {
		payload uint64
		now     int64
		want    int64
	}{
		{4096, 0, page},
		{4096, 1000, 1000 + page},
		{0, 500, 500 + 300},
	} {
		if got := l.RoundTrip(tc.payload, tc.now); got != tc.want {
			t.Errorf("RoundTrip(%d, %d) = %d, want %d", tc.payload, tc.now, got, tc.want)
		}
	}
}

func TestLinkConfigValidate(t *testing.T) {
	if err := DefaultLinkConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []LinkConfig{
		{},
		{OneWayLatency: time.Nanosecond, BytesPerNs: 0},
		{OneWayLatency: 0, BytesPerNs: 1},
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
