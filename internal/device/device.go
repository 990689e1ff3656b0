// Package device holds the ICGMM device timing models of the online serving
// path (internal/serve): given a functional cache outcome, a model answers
// "how long did this access take". Two implementations exist — Flat, which
// composes the cxl link, hbm and ssd models with a fixed inference overhead,
// and Dataflow, which routes requests through the fpga package's per-module
// pipeline timeline so sojourn times reflect queueing and backpressure.
package device

import (
	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/hbm"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Outcome is a functional cache access result annotated with the request
// direction — everything a timing model needs to know about what the device
// did, decoupled from who asked.
type Outcome struct {
	Hit       bool
	Admitted  bool
	WriteBack bool
	Write     bool
	// VictimPage is the dirty victim written back when WriteBack is set.
	VictimPage uint64
}

// Bypassed marks misses the policy declined to cache.
func (o Outcome) Bypassed() bool { return !o.Hit && !o.Admitted }

// OutcomeOf annotates a cache access result with the request direction.
func OutcomeOf(res cache.AccessResult, write bool) Outcome {
	return Outcome{
		Hit:        res.Hit,
		Admitted:   res.Admitted,
		WriteBack:  res.WriteBack,
		Write:      write,
		VictimPage: res.VictimPage,
	}
}

// Flat is the latency-constant timing model: HBM on hits, SSD read (plus
// victim write-back) on fills, direct SSD on bypasses, a fixed policy-engine
// inference overhead per miss (hidden behind the device time when Overlap is
// set), and one CXL round trip wrapping every access.
type Flat struct {
	Mem  *hbm.Memory
	Dev  *ssd.Device
	Link *cxl.Link
	// OverheadNs is the policy engine's per-miss inference latency; Overlap
	// hides it behind the SSD access as in Sec. 4.3.
	OverheadNs int64
	Overlap    bool
}

// Serve times one device access beginning at startNs. It returns the CXL
// round-trip and device-internal components of the latency (total = rt +
// dev), plus the policy-engine busy time the access accounted for — the
// overhead cycles not hidden behind the device time.
func (f *Flat) Serve(page uint64, out Outcome, startNs int64) (rtNs, devNs, busyNs int64) {
	switch {
	case out.Hit:
		devNs = f.Mem.Access(page, startNs) - startNs
	case out.Admitted:
		done := f.Dev.Access(ssd.OpRead, page, startNs)
		devNs = done - startNs
		if out.WriteBack {
			wb := f.Dev.Access(ssd.OpWrite, out.VictimPage, startNs)
			devNs += wb - startNs
		}
		// Fill lands in device DRAM before the completion returns.
		devNs += f.Mem.Access(page, startNs+devNs) - (startNs + devNs)
	case out.Write:
		devNs = f.Dev.Access(ssd.OpWrite, page, startNs) - startNs
	default:
		devNs = f.Dev.Access(ssd.OpRead, page, startNs) - startNs
	}

	if !out.Hit && f.OverheadNs > 0 {
		if f.Overlap {
			if f.OverheadNs > devNs {
				busyNs = f.OverheadNs - devNs
				devNs = f.OverheadNs
			}
		} else {
			busyNs = f.OverheadNs
			devNs += f.OverheadNs
		}
	}

	// CXL round trip wraps the device service time: request over, data back
	// (page payload on the read completion).
	rtNs = f.Link.RoundTrip(!out.Write, trace.PageSize, startNs) - startNs
	return rtNs, devNs, busyNs
}
