// Package ssd implements the SSD access-latency emulator that backs the
// expanded memory space. The paper's FPGA prototype contains exactly such an
// emulator inside the cache control engine (Sec. 4.2): on a cache miss the
// dataflow pauses for a configured device response time. This package is a
// faithful port of that emulator with added per-channel queueing and
// read/write (wear) counters.
package ssd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Profile holds the latency characteristics of one storage technology.
type Profile struct {
	Name string
	// ReadLatency is the average page (4 KiB) read latency.
	ReadLatency time.Duration
	// WriteLatency is the average page program latency.
	WriteLatency time.Duration
}

// TLC returns the paper's target device: TLC NAND with 75 us reads and
// 900 us writes (Sec. 5.1, after OSTEP's device tables).
func TLC() Profile {
	return Profile{Name: "tlc", ReadLatency: 75 * time.Microsecond, WriteLatency: 900 * time.Microsecond}
}

// SLC returns a fast single-level-cell profile.
func SLC() Profile {
	return Profile{Name: "slc", ReadLatency: 25 * time.Microsecond, WriteLatency: 200 * time.Microsecond}
}

// QLC returns a slow quad-level-cell profile.
func QLC() Profile {
	return Profile{Name: "qlc", ReadLatency: 120 * time.Microsecond, WriteLatency: 3 * time.Millisecond}
}

// Validate checks the profile is usable.
func (p Profile) Validate() error {
	if p.ReadLatency <= 0 || p.WriteLatency <= 0 {
		return errors.New("ssd: non-positive latency")
	}
	return nil
}

// Op is the request kind presented to the device.
type Op uint8

const (
	// OpRead fetches one page.
	OpRead Op = iota
	// OpWrite programs one page.
	OpWrite
)

// Device emulates a multi-channel SSD. Requests are routed to channels by
// page index; each channel serializes its requests, so a burst to one
// channel queues while independent channels proceed in parallel. Time is
// virtual: callers supply the issue time and receive the completion time.
type Device struct {
	profile  Profile
	channels []int64 // per-channel busy-until, virtual ns
	reads    stats.Counter
	writes   stats.Counter
}

// New creates a device with the given profile and channel count.
func New(profile Profile, channels int) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if channels <= 0 {
		return nil, fmt.Errorf("ssd: invalid channel count %d", channels)
	}
	return &Device{
		profile:  profile,
		channels: make([]int64, channels),
	}, nil
}

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.profile }

// Channels returns the channel count.
func (d *Device) Channels() int { return len(d.channels) }

// Access issues one page request at virtual time nowNs and returns the
// completion time. The latency experienced by the caller is done - nowNs:
// the device service time plus any queueing behind earlier requests on the
// same channel.
func (d *Device) Access(op Op, page uint64, nowNs int64) (doneNs int64) {
	ch := int(page % uint64(len(d.channels)))
	start := nowNs
	if d.channels[ch] > start {
		start = d.channels[ch]
	}

	var service int64
	switch op {
	case OpWrite:
		service = d.profile.WriteLatency.Nanoseconds()
		d.writes.Inc()
	default:
		service = d.profile.ReadLatency.Nanoseconds()
		d.reads.Inc()
	}
	done := start + service
	d.channels[ch] = done
	return done
}

// State is the device's full mutable state: per-channel busy horizons on
// the virtual clock plus the read and write counters. Part of the serving
// subsystem's checkpoint surface.
type State struct {
	Channels []int64 `json:"channels"`
	Reads    uint64  `json:"reads"`
	Writes   uint64  `json:"writes"`
}

// State exports the device's mutable state.
func (d *Device) State() State {
	return State{
		Channels: append([]int64(nil), d.channels...),
		Reads:    d.reads.Value(),
		Writes:   d.writes.Value(),
	}
}

// RestoreState replaces the device's mutable state. The channel count must
// match the configuration.
func (d *Device) RestoreState(s State) error {
	if len(s.Channels) != len(d.channels) {
		return fmt.Errorf("ssd: state has %d channels, device has %d", len(s.Channels), len(d.channels))
	}
	copy(d.channels, s.Channels)
	d.reads.Reset()
	d.reads.Add(s.Reads)
	d.writes.Reset()
	d.writes.Add(s.Writes)
	return nil
}

// ReadPenalty returns the nominal read service time in nanoseconds, the
// constant the latency model uses when queueing is not simulated.
func (d *Device) ReadPenalty() int64 { return d.profile.ReadLatency.Nanoseconds() }

// WritePenalty returns the nominal write service time in nanoseconds.
func (d *Device) WritePenalty() int64 { return d.profile.WriteLatency.Nanoseconds() }

// Stats describes accumulated device activity.
type Stats struct {
	Reads, Writes uint64
}

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats {
	return Stats{Reads: d.reads.Value(), Writes: d.writes.Value()}
}
