package workload

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// ClosedLoopConfig describes a closed-loop client population: N users who
// each issue one request, wait for its (estimated) completion, think, and
// issue the next. Unlike OpenLoop — whose arrival clock ignores the service
// entirely — a closed-loop stream's offered load falls when the device
// saturates, because every user's next arrival is gated on the completion
// latency the serving path feeds back. This is the mode where QoS decisions
// change the traffic that judges them.
type ClosedLoopConfig struct {
	// Users is the number of concurrent users in the population.
	Users int
	// RatePerSec is the target offered rate at zero service latency; the
	// per-user think time is Users/RatePerSec seconds, so an unloaded device
	// sees the same mean rate an OpenLoop with this rate would offer.
	RatePerSec float64
	// Alpha is the EWMA weight of new latency observations (default 0.2).
	Alpha float64
}

// Validate checks the client population parameters.
func (c ClosedLoopConfig) Validate() error {
	if c.Users <= 0 {
		return errors.New("workload: closed loop needs at least one user")
	}
	if c.RatePerSec <= 0 {
		return errors.New("workload: closed loop needs a positive rate")
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return errors.New("workload: closed-loop alpha outside [0, 1]")
	}
	return nil
}

// ClosedLoop is a deterministic closed-loop request stream: records come
// from the same segmented generator machinery as OpenLoop (an inner stream
// with a zero rate supplies pages; its arrival clock is unused), but arrival
// times are the virtual instants users become free — previous completion
// estimate plus think time. The latency estimate is an EWMA updated by
// ObserveLatency at batch boundaries, so the stream stays a pure function of
// the (record sequence, observation sequence) pair and replays exactly
// through checkpoint/resume.
type ClosedLoop struct {
	inner   *OpenLoop
	cfg     ClosedLoopConfig
	rate    float64
	thinkNs float64
	// users holds each user's next-free virtual time in nanoseconds.
	users    []float64
	latEstNs float64
	seen     bool
	one      [1]trace.Record
}

// NewClosedLoop builds the stream. The generator and open-loop config govern
// page selection exactly as for NewOpenLoop; olCfg.RatePerSec is ignored
// (arrivals are gated by the users, not a clock).
func NewClosedLoop(g Generator, olCfg OpenLoopConfig, cfg ClosedLoopConfig) (*ClosedLoop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.2
	}
	olCfg.RatePerSec = 0 // the inner clock must stay at zero
	inner, err := NewOpenLoop(g, olCfg)
	if err != nil {
		return nil, err
	}
	cl := &ClosedLoop{
		inner: inner,
		cfg:   cfg,
		users: make([]float64, cfg.Users),
	}
	cl.setRate(cfg.RatePerSec)
	return cl, nil
}

// Name labels the stream after its generator.
func (cl *ClosedLoop) Name() string { return cl.inner.Name() }

// Rate returns the zero-latency target rate.
func (cl *ClosedLoop) Rate() float64 { return cl.rate }

// SetRate retargets the population: the think time is recomputed so the
// zero-latency offered rate matches, exactly like an OpenLoop rate change.
func (cl *ClosedLoop) SetRate(r float64) { cl.setRate(r) }

func (cl *ClosedLoop) setRate(r float64) {
	cl.rate = r
	if r > 0 {
		cl.thinkNs = float64(cl.cfg.Users) * 1e9 / r
	} else {
		cl.thinkNs = 0
	}
}

// SetGenerator swaps the page-selection generator (scenario phase event).
func (cl *ClosedLoop) SetGenerator(g Generator) { cl.inner.SetGenerator(g) }

// Emitted returns how many requests have been produced so far.
func (cl *ClosedLoop) Emitted() uint64 { return cl.inner.Emitted() }

// ObserveLatency folds one completion-latency observation (the mean sojourn
// of the tenant's requests in the last batch, in nanoseconds) into the EWMA
// that gates future arrivals. Called at batch boundaries on the ingest
// goroutine, so the feedback sequence is deterministic.
func (cl *ClosedLoop) ObserveLatency(meanNs float64) {
	if meanNs < 0 {
		return
	}
	if !cl.seen {
		cl.latEstNs = meanNs
		cl.seen = true
		return
	}
	cl.latEstNs = cl.cfg.Alpha*meanNs + (1-cl.cfg.Alpha)*cl.latEstNs
}

// Next fills dst with the next len(dst) requests. Each record's page comes
// from the inner generator stream; its Time is the instant the next-free
// user issues it (ties broken by lowest user index), after which that user
// is busy for the estimated completion latency plus the think time.
func (cl *ClosedLoop) Next(dst []trace.Record) int {
	for i := range dst {
		cl.inner.Next(cl.one[:])
		r := cl.one[0]
		u := 0
		for v := 1; v < len(cl.users); v++ {
			if cl.users[v] < cl.users[u] {
				u = v
			}
		}
		r.Time = uint64(cl.users[u])
		cl.users[u] += cl.latEstNs + cl.thinkNs
		dst[i] = r
	}
	return len(dst)
}

// ClosedLoopState is the stream's full mutable state: the inner generator
// cursor plus the user clocks and the latency EWMA.
type ClosedLoopState struct {
	Inner    OpenLoopState `json:"inner"`
	Users    []float64     `json:"users"`
	LatEstNs float64       `json:"lat_est_ns"`
	Seen     bool          `json:"seen,omitempty"`
	Rate     float64       `json:"rate"`
}

// State exports the stream's mutable state.
func (cl *ClosedLoop) State() ClosedLoopState {
	return ClosedLoopState{
		Inner:    cl.inner.State(),
		Users:    append([]float64(nil), cl.users...),
		LatEstNs: cl.latEstNs,
		Seen:     cl.seen,
		Rate:     cl.rate,
	}
}

// RestoreState rewinds the stream to an exported state. The receiver must
// have been built with the same generator and configs as the exporter.
func (cl *ClosedLoop) RestoreState(s ClosedLoopState) error {
	if len(s.Users) != len(cl.users) {
		return fmt.Errorf("workload: closed-loop state has %d users, stream has %d", len(s.Users), len(cl.users))
	}
	if err := cl.inner.RestoreState(s.Inner); err != nil {
		return err
	}
	copy(cl.users, s.Users)
	cl.latEstNs = s.LatEstNs
	cl.seen = s.Seen
	cl.setRate(s.Rate)
	return nil
}
