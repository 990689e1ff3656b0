// Package trace defines the memory-access trace format shared by every part
// of the ICGMM reproduction and implements the paper's trace-processing
// pipeline (Sec. 3.1): warm-up trimming, page-index derivation from physical
// addresses, and the Algorithm 1 timestamp transformation that converts raw
// arrival order into access-shot/time-window coordinates for the GMM.
package trace

import "fmt"

// Op is the kind of a memory request.
type Op uint8

const (
	// Read is a host load served from cache or SSD.
	Read Op = iota
	// Write is a host store; on a miss with a dirty victim it incurs the
	// SSD write-back penalty.
	Write
)

// String renders the op as "R" or "W", the format used in trace files.
func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// PageShift is the log2 of the SSD access granularity (4 KiB pages). The
// paper's Sec. 3.1 derives the page index from the physical address at this
// granularity. (The paper's text types the derivation as PA << 12; shifting
// left would multiply the address, so as in every page-table design the
// intended operation is PA >> 12, which we implement.)
const PageShift = 12

// PageSize is the SSD access granularity in bytes.
const PageSize = 1 << PageShift

// Record is one raw trace entry as produced by trace collection: the
// request kind, the physical byte address, and the collection time expressed
// as a monotonically increasing request counter.
type Record struct {
	Op   Op
	Addr uint64 // physical byte address
	Time uint64 // arrival index assigned at collection
}

// Page returns the 4 KiB page index of the record's address.
func (r Record) Page() uint64 { return r.Addr >> PageShift }

// String renders the record in the CSV trace format.
func (r Record) String() string {
	return fmt.Sprintf("%s,%d,%d", r.Op, r.Addr, r.Time)
}

// Trace is an in-memory sequence of records.
type Trace []Record

// Stamp assigns each record's Time field its index, the convention used by
// the trace collector (arrival order is the clock).
func (t Trace) Stamp() {
	for i := range t {
		t[i].Time = uint64(i)
	}
}

// Pages returns the set of distinct pages touched by the trace.
func (t Trace) Pages() map[uint64]struct{} {
	set := make(map[uint64]struct{})
	for _, r := range t {
		set[r.Page()] = struct{}{}
	}
	return set
}
