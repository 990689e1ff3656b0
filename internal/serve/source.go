package serve

import (
	"repro/internal/trace"
	"repro/internal/workload"
)

// Source feeds requests to the service in batches. Next fills dst and
// returns how many requests it wrote; 0 ends the run. Sources are pulled
// from the ingest loop only, so they need not be safe for concurrent use.
type Source interface {
	Next(dst []Request) int
}

// openLoopSource adapts a workload.OpenLoop stream, bounding it to a total
// operation count.
type openLoopSource struct {
	ol        *workload.OpenLoop
	remaining uint64
	buf       []trace.Record
}

// NewOpenLoopSource serves ops requests from an open-loop workload stream.
func NewOpenLoopSource(ol *workload.OpenLoop, ops uint64) Source {
	return &openLoopSource{ol: ol, remaining: ops}
}

func (s *openLoopSource) Next(dst []Request) int {
	n := len(dst)
	if uint64(n) > s.remaining {
		n = int(s.remaining)
	}
	if n == 0 {
		return 0
	}
	if cap(s.buf) < n {
		s.buf = make([]trace.Record, n)
	}
	recs := s.buf[:n]
	s.ol.Next(recs)
	for i, r := range recs {
		dst[i] = Request{
			Page:      r.Page(),
			Write:     r.Op == trace.Write,
			ArrivalNs: int64(r.Time),
		}
	}
	s.remaining -= uint64(n)
	return n
}

// muxSource adapts a workload.Mux (the multi-tenant merged stream) to the
// service, carrying each record's stream index through as Request.Tenant and
// bounding the run to a total operation count across all tenants.
type muxSource struct {
	mux       *workload.Mux
	remaining uint64
	buf       []workload.MuxRecord
}

// NewMuxSource serves ops merged requests from a multi-tenant mux (see
// NewTenantMux). Stream i of the mux must correspond to Config.Tenants[i].
func NewMuxSource(m *workload.Mux, ops uint64) Source {
	return &muxSource{mux: m, remaining: ops}
}

func (s *muxSource) Next(dst []Request) int {
	n := len(dst)
	if uint64(n) > s.remaining {
		n = int(s.remaining)
	}
	if n == 0 {
		return 0
	}
	if cap(s.buf) < n {
		s.buf = make([]workload.MuxRecord, n)
	}
	recs := s.buf[:n]
	s.mux.Next(recs)
	for i, r := range recs {
		dst[i] = Request{
			Page:      r.Rec.Page(),
			Write:     r.Rec.Op == trace.Write,
			ArrivalNs: int64(r.Rec.Time),
			Tenant:    r.Stream,
		}
	}
	s.remaining -= uint64(n)
	return n
}
