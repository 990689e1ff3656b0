package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans nest: parent is the index of the enclosing span (-1 at the root).
// batch is the shared identifier tying the spans of one ingest batch
// together (-1 for spans outside the batch loop).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	batch      int
	kind       string // step classification, set on serve.step spans
}

// tracer keeps spans in memory for one traced run. A nil *tracer records
// nothing, so untraced runs share the same code path at the cost of a nil
// check per span.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // stack of spans begun but not ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span nested in the innermost open span and returns its id.
func (t *tracer) begin(name string, batch int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, batch: batch})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("icgmm-bench: span %q closed out of order", t.spans[id].name))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.origin)
}

// record adds an already-timed leaf span inside the innermost open span:
// the replay measures a whole layer pass with two clock reads and files it
// afterwards.
func (t *tracer) record(name string, batch int, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: end.Sub(t.origin), parent: parent, batch: batch})
}

// onAxis returns a copy of the tracer with every span time moved onto the
// reference-time axis, so durations and self times come out at reference
// speed.
func (t *tracer) onAxis(a refAxis) *tracer {
	off := int64(t.origin.Sub(epoch))
	base := a.ref(off)
	at := func(d time.Duration) time.Duration { return time.Duration(a.ref(off+int64(d)) - base) }
	c := *t
	c.spans = make([]span, len(t.spans))
	for i, s := range t.spans {
		s.start, s.end = at(s.start), at(s.end)
		c.spans[i] = s
	}
	return &c
}

// selfTimes sums each span name's self time: duration minus the time its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// durations lists the durations of every span with the given name (and, if
// kind is non-empty, that step kind), in recording order.
func (t *tracer) durations(name, kind string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && (kind == "" || s.kind == kind) {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing nest events of one thread by time containment.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans of every traced run as one trace-event
// JSON file, one process per workload.
func writeChromeTrace(path string, tracers []*tracer) error {
	var events []traceEvent
	for pid, t := range tracers {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": t.workload},
		})
		for _, s := range t.spans {
			args := map[string]any{"parent": s.parent}
			if s.batch >= 0 {
				args["batch"] = s.batch
			}
			if s.kind != "" {
				args["kind"] = s.kind
			}
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", Pid: pid, Tid: 1,
				Ts:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
