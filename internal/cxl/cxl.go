// Package cxl models the CXL.mem link of Fig. 1 that connects the host to
// the ICGMM device: a transaction layer whose latency and flit accounting
// every device access pays on its way in and out. Which pages stay in host
// DRAM is the device timing layer's decision (internal/device).
//
// The model is deliberately at the transaction level (not flit-by-flit
// timing): what the paper's evaluation depends on is the round-trip latency
// the link adds, which is captured here.
package cxl

import (
	"errors"
	"time"

	"repro/internal/stats"
)

// MsgType is a CXL.mem transaction type (the master-to-subordinate and
// subordinate-to-master opcode classes relevant to memory expansion).
type MsgType uint8

const (
	// MemRd requests a read of one cacheline/page.
	MemRd MsgType = iota
	// MemWr writes data to the device.
	MemWr
	// Cmp is the subordinate completion for a read (with data) or write.
	Cmp
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MemRd:
		return "MemRd"
	case MemWr:
		return "MemWr"
	default:
		return "Cmp"
	}
}

// Message is one transaction-layer message.
type Message struct {
	Type MsgType
	Addr uint64
	// PayloadBytes is the data carried (0 for requests without data).
	PayloadBytes uint64
}

// LinkConfig characterizes the CXL link. Defaults approximate a x8 CXL 2.0
// port: ~25 GB/s usable bandwidth and ~150 ns one-way port-to-port latency
// (consistent with published CXL memory-expansion measurements).
type LinkConfig struct {
	OneWayLatency time.Duration
	BytesPerNs    float64
	FlitBytes     uint64
}

// DefaultLinkConfig returns the x8 CXL 2.0 approximation.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		OneWayLatency: 150 * time.Nanosecond,
		BytesPerNs:    25,
		FlitBytes:     64,
	}
}

// Validate checks the link parameters.
func (c LinkConfig) Validate() error {
	if c.OneWayLatency <= 0 || c.BytesPerNs <= 0 || c.FlitBytes == 0 {
		return errors.New("cxl: invalid link config")
	}
	return nil
}

// Link models the CXL.mem port: latency plus serialization delay, with flit
// counting for bandwidth accounting.
type Link struct {
	cfg      LinkConfig
	flits    stats.Counter
	messages stats.Counter
	bytes    stats.Counter
}

// NewLink builds a link.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg}, nil
}

// Transfer models sending one message across the link at virtual time
// nowNs, returning its arrival time at the far side. Serialization delay is
// payload size over bandwidth; every message costs at least one flit.
func (l *Link) Transfer(msg Message, nowNs int64) int64 {
	l.messages.Inc()
	flits := uint64(1)
	if msg.PayloadBytes > 0 {
		flits = (msg.PayloadBytes + l.cfg.FlitBytes - 1) / l.cfg.FlitBytes
	}
	l.flits.Add(flits)
	l.bytes.Add(msg.PayloadBytes)
	ser := int64(float64(msg.PayloadBytes) / l.cfg.BytesPerNs)
	return nowNs + l.cfg.OneWayLatency.Nanoseconds() + ser
}

// RoundTrip models a request/completion pair: request (no payload for
// reads; page payload for writes) then completion (page payload for reads).
// It returns the completion arrival time at the host.
func (l *Link) RoundTrip(read bool, payloadBytes uint64, nowNs int64) int64 {
	var reqPayload, cmpPayload uint64
	if read {
		cmpPayload = payloadBytes
	} else {
		reqPayload = payloadBytes
	}
	reqType := MemWr
	if read {
		reqType = MemRd
	}
	arrive := l.Transfer(Message{Type: reqType, PayloadBytes: reqPayload}, nowNs)
	return l.Transfer(Message{Type: Cmp, PayloadBytes: cmpPayload}, arrive)
}

// Stats summarizes link activity.
type Stats struct {
	Messages uint64
	Flits    uint64
	Bytes    uint64
}

// Stats returns a snapshot of link counters.
func (l *Link) Stats() Stats {
	return Stats{Messages: l.messages.Value(), Flits: l.flits.Value(), Bytes: l.bytes.Value()}
}

// RestoreStats replaces the link's accumulated counters — its only mutable
// state (the transfer model itself is a pure function of its config). Part
// of the serving subsystem's checkpoint surface.
func (l *Link) RestoreStats(s Stats) {
	l.messages.Reset()
	l.messages.Add(s.Messages)
	l.flits.Reset()
	l.flits.Add(s.Flits)
	l.bytes.Reset()
	l.bytes.Add(s.Bytes)
}
