package serve

import (
	"errors"
	"fmt"

	"repro/internal/fpga"
)

// TimingKind selects a partition's device timing backend: the flat
// latency-constant model (the historical behaviour and the path the
// determinism goldens pin) or the fpga dataflow pipeline, where tag compare,
// policy-engine inference and SSD access contend as pipelined modules behind
// a bounded outstanding-request window, so sojourn times reflect queueing and
// backpressure. The two kinds are separately deterministic but their metric
// streams are not byte-comparable to each other.
type TimingKind int

const (
	// TimingFlat serves through device.Flat: per-outcome latency constants
	// with a fixed per-miss inference overhead (the default).
	TimingFlat TimingKind = iota
	// TimingDataflow serves through device.Dataflow: host/link routing in
	// front of a per-partition fpga.DeviceTimeline.
	TimingDataflow
)

// String names the kind as the spec's "device".{"timing"} field spells it.
func (k TimingKind) String() string {
	if k == TimingDataflow {
		return "dataflow"
	}
	return "flat"
}

// ParseTimingKind maps a spec "timing" value to its kind.
func ParseTimingKind(s string) (TimingKind, error) {
	switch s {
	case "flat":
		return TimingFlat, nil
	case "dataflow":
		return TimingDataflow, nil
	}
	return TimingFlat, fmt.Errorf("serve: unknown timing kind %q (valid: flat|dataflow)", s)
}

// DeviceConfig selects and parameterizes the device timing backend.
type DeviceConfig struct {
	// Timing picks the backend (default flat).
	Timing TimingKind
	// Dataflow times the Fig. 5 pipeline under TimingDataflow: tag-compare /
	// inference / SSD cycles, overlap, and the outstanding-request window.
	Dataflow fpga.DataflowConfig
	// HostPages bounds the host-DRAM-resident prefix of the page space under
	// TimingDataflow; requests below it are served locally at HostLatencyNs
	// and never reach the device (0 routes everything to the device).
	HostPages     uint64
	HostLatencyNs int64
}

// DefaultDeviceConfig is flat timing, with the paper's measured dataflow
// parameters staged for a spec that switches the backend on.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		Timing:        TimingFlat,
		Dataflow:      fpga.DefaultDataflowConfig(),
		HostLatencyNs: 100,
	}
}

// Validate checks the device timing configuration.
func (c DeviceConfig) Validate() error {
	switch c.Timing {
	case TimingFlat:
	case TimingDataflow:
		if err := c.Dataflow.Validate(); err != nil {
			return err
		}
		if c.Dataflow.Outstanding < 0 {
			return errors.New("serve: negative outstanding-request window")
		}
		if c.Dataflow.PolicyEnabled && c.Dataflow.GMM.InferenceCycles() <= 0 {
			return errors.New("serve: non-positive policy-engine inference cycles")
		}
		if c.HostPages > 0 && c.HostLatencyNs <= 0 {
			return errors.New("serve: host-resident pages need a positive host latency")
		}
	default:
		return fmt.Errorf("serve: unknown timing kind %d", c.Timing)
	}
	if c.HostLatencyNs < 0 {
		return errors.New("serve: negative host latency")
	}
	return nil
}
