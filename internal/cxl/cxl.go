// Package cxl models the CXL.mem link of Fig. 1 that connects the host to
// the ICGMM device: a transaction layer whose round-trip latency every device
// access pays on its way in and out. Which pages stay in host DRAM is the
// device timing layer's decision (internal/device).
//
// The model is deliberately at the transaction level (not flit-by-flit
// timing): what the paper's evaluation depends on is the round-trip latency
// the link adds, which is captured here. A link is stateless — a pure
// function of its config — so nothing about it needs checkpointing.
package cxl

import (
	"errors"
	"time"
)

// LinkConfig characterizes the CXL link. Defaults approximate a x8 CXL 2.0
// port: ~25 GB/s usable bandwidth and ~150 ns one-way port-to-port latency
// (consistent with published CXL memory-expansion measurements).
type LinkConfig struct {
	OneWayLatency time.Duration
	BytesPerNs    float64
}

// DefaultLinkConfig returns the x8 CXL 2.0 approximation.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		OneWayLatency: 150 * time.Nanosecond,
		BytesPerNs:    25,
	}
}

// Validate checks the link parameters.
func (c LinkConfig) Validate() error {
	if c.OneWayLatency <= 0 || c.BytesPerNs <= 0 {
		return errors.New("cxl: invalid link config")
	}
	return nil
}

// Link models the CXL.mem port: latency plus serialization delay.
type Link struct {
	cfg LinkConfig
}

// NewLink builds a link.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg}, nil
}

// RoundTrip models a request/completion pair starting at virtual time nowNs
// and returns the completion's arrival time at the host: two one-way
// latencies plus the serialization delay of the payload (payload size over
// bandwidth). Exactly one of the two messages carries the payload — the
// completion of a read, the request of a write — so the direction does not
// change the total.
func (l *Link) RoundTrip(payloadBytes uint64, nowNs int64) int64 {
	ser := int64(float64(payloadBytes) / l.cfg.BytesPerNs)
	return nowNs + 2*l.cfg.OneWayLatency.Nanoseconds() + ser
}
