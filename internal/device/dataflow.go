package device

import (
	"repro/internal/cxl"
	"repro/internal/fpga"
	"repro/internal/trace"
)

// NsToCycles converts virtual nanoseconds to device clock cycles at the
// fpga package's 233 MHz fabric clock. Pure float64 arithmetic on int64
// inputs: deterministic across platforms.
func NsToCycles(ns int64) int64 {
	return int64(float64(ns) * fpga.ClockMHz / 1000)
}

// CyclesToNs converts device clock cycles back to nanoseconds.
func CyclesToNs(c int64) int64 {
	return int64(float64(c) * fpga.CycleNs)
}

// Result reports one request's trip through a Dataflow model.
type Result struct {
	// DoneNs is the completion time; LinkNs and DevNs are the CXL round-trip
	// and device-pipeline components of the sojourn (DoneNs = arrival +
	// LinkNs + DevNs).
	DoneNs, LinkNs, DevNs int64
	// QueueDepth is the outstanding-window occupancy the arrival observed,
	// before this request entered.
	QueueDepth int
	// Stalled marks arrivals gated by a full outstanding window.
	Stalled bool
}

// Dataflow routes device accesses through the Fig. 5 pipeline model: a CXL
// round trip wraps entry into a per-module cycle timeline (tag compare,
// policy-engine inference, overlapped SSD read/write-back) behind a bounded
// outstanding-request window, so latencies reflect queueing and backpressure
// instead of table lookups. Pages below HostPages never reach the device:
// they are host-DRAM resident and served locally at HostLatNs.
type Dataflow struct {
	Link     *cxl.Link
	Timeline *fpga.DeviceTimeline
	// HostPages bounds the host-DRAM-resident prefix of the page space
	// (0 routes everything to the device); HostLatNs is its access time.
	HostPages uint64
	HostLatNs int64
}

// HostRoute reports whether the page is host-DRAM resident and, if so, its
// local access latency.
func (d *Dataflow) HostRoute(page uint64) (int64, bool) {
	if page < d.HostPages {
		return d.HostLatNs, true
	}
	return 0, false
}

// Serve routes one device access arriving at arrivalNs through the link and
// the pipeline timeline. Arrivals must be fed in non-decreasing order.
func (d *Dataflow) Serve(page uint64, out Outcome, arrivalNs int64) Result {
	rt := d.Link.RoundTrip(trace.PageSize, arrivalNs) - arrivalNs
	ev := fpga.AccessEvent{
		Page:      page,
		Write:     out.Write,
		Hit:       out.Hit,
		WriteBack: out.WriteBack,
		Bypassed:  out.Bypassed(),
	}
	arrivalCycle := NsToCycles(arrivalNs)
	depth := d.Timeline.Depth(arrivalCycle)
	_, resp, stalled := d.Timeline.Advance(ev, arrivalCycle)
	devNs := CyclesToNs(resp) - CyclesToNs(arrivalCycle)
	return Result{
		DoneNs:     arrivalNs + rt + devNs,
		LinkNs:     rt,
		DevNs:      devNs,
		QueueDepth: depth,
		Stalled:    stalled,
	}
}
