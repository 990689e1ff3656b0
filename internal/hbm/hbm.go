// Package hbm models the FPGA's high-bandwidth memory, which the ICGMM
// prototype uses as the DRAM cache (Sec. 4). The model captures what the
// evaluation depends on: per-bank service latency with bank-conflict
// queueing. Cache tags live in the functional cache (internal/cache) and
// per-block GMM scores in the policy engine.
package hbm

import (
	"errors"
	"fmt"
	"time"
)

// Config sizes the HBM model. The Alveo U50 exposes 32 pseudo-channels;
// access latency is set so the end-to-end measured DRAM-cache hit time is
// the paper's 1 us.
type Config struct {
	Banks int
	// AccessLatency is the service time of one page-sized transfer.
	AccessLatency time.Duration
}

// DefaultConfig mirrors the U50-based prototype.
func DefaultConfig() Config {
	return Config{Banks: 32, AccessLatency: time.Microsecond}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 {
		return errors.New("hbm: bank count must be positive")
	}
	if c.AccessLatency <= 0 {
		return errors.New("hbm: access latency must be positive")
	}
	return nil
}

// Memory is the banked HBM model. Like ssd.Device it runs on virtual time.
type Memory struct {
	cfg  Config
	busy []int64
}

// New builds the memory model.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{cfg: cfg, busy: make([]int64, cfg.Banks)}, nil
}

// Access services one page transfer for the given page at virtual time
// nowNs, returning the completion time (queueing behind a busy bank plus the
// service latency).
func (m *Memory) Access(page uint64, nowNs int64) int64 {
	bank := int(page % uint64(m.cfg.Banks))
	start := nowNs
	if m.busy[bank] > start {
		start = m.busy[bank]
	}
	done := start + m.cfg.AccessLatency.Nanoseconds()
	m.busy[bank] = done
	return done
}

// State is the memory model's full mutable state: per-bank busy horizons on
// the virtual clock. Part of the serving subsystem's checkpoint surface.
type State struct {
	Busy []int64 `json:"busy"`
}

// State exports the model's mutable state.
func (m *Memory) State() State {
	return State{Busy: append([]int64(nil), m.busy...)}
}

// RestoreState replaces the model's mutable state. The bank count must
// match the configuration.
func (m *Memory) RestoreState(s State) error {
	if len(s.Busy) != len(m.busy) {
		return fmt.Errorf("hbm: state has %d banks, memory has %d", len(s.Busy), len(m.busy))
	}
	copy(m.busy, s.Busy)
	return nil
}

// HitLatency returns the nominal service latency in nanoseconds.
func (m *Memory) HitLatency() int64 { return m.cfg.AccessLatency.Nanoseconds() }
