package stats

import "errors"

// This file is the measurement substrate's checkpoint surface: exact,
// JSON-friendly state exports for the accumulators the serving subsystem
// must carry across a pause/resume boundary. Go's encoding/json emits the
// shortest float64 representation that parses back to the identical bits,
// so every exported float round-trips exactly and a restored accumulator is
// indistinguishable from one that was never serialized — the property the
// byte-identical resume contract leans on.

// AccumulatorState is the full state of a LatencyAccumulator.
type AccumulatorState struct {
	Sum   int64 `json:"sum"`
	Count int64 `json:"count"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// State exports the accumulator.
func (a *LatencyAccumulator) State() AccumulatorState {
	return AccumulatorState{Sum: a.sum, Count: a.count, Min: a.min, Max: a.max}
}

// RestoreState replaces the accumulator's contents with the exported state.
func (a *LatencyAccumulator) RestoreState(s AccumulatorState) {
	a.sum, a.count, a.min, a.max = s.Sum, s.Count, s.Min, s.Max
}

// WelfordState is the full state of a Welford accumulator.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State exports the accumulator.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// RestoreState replaces the accumulator's contents with the exported state.
func (w *Welford) RestoreState(s WelfordState) {
	w.n, w.mean, w.m2 = s.N, s.Mean, s.M2
}

// HistogramState is the full state of a Histogram: its non-empty bucket
// counts by bucket index, and the exact accumulator.
type HistogramState struct {
	Buckets map[int]uint64   `json:"buckets,omitempty"`
	Acc     AccumulatorState `json:"acc"`
}

// State exports the histogram. Bucket counts are stored sparsely: a latency
// histogram occupies a small fraction of its 3,712 buckets.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Acc: h.acc.State()}
	for i, c := range h.counts {
		if c > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[i] = c
		}
	}
	return s
}

// RestoreState replaces the histogram's contents with the exported state. It
// rejects bucket indices outside the geometry, empty bucket entries (State
// never writes one) and bucket counts that do not sum to the sample count, so
// an accepted state exports back unchanged.
func (h *Histogram) RestoreState(s HistogramState) error {
	if s.Acc.Count < 0 {
		return errors.New("stats: histogram state with a negative sample count")
	}
	left, top := uint64(s.Acc.Count), -1
	for i, c := range s.Buckets {
		switch {
		case i < 0 || i >= numBuckets:
			return errors.New("stats: histogram state bucket index out of range")
		case c == 0:
			return errors.New("stats: histogram state with an empty bucket entry")
		case c > left:
			return errors.New("stats: histogram state bucket counts exceed its sample count")
		}
		left -= c
		top = max(top, i)
	}
	if left != 0 {
		return errors.New("stats: histogram state bucket counts fall short of its sample count")
	}
	h.Reset()
	if top >= len(h.counts) {
		h.grow(top)
	}
	for i, c := range s.Buckets {
		h.counts[i] = c
	}
	h.acc.RestoreState(s.Acc)
	return nil
}
