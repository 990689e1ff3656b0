package serve

import (
	"bytes"
	"errors"
	"io"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// Session is the resumable form of a serving run: where Service.Run goes to
// completion or nothing, a Session exposes the run's lifecycle — open, step
// a batch at a time, checkpoint the full mutable state to a writer, resume
// from a reader in a fresh process, close. A resumed session is
// byte-identical to the uninterrupted run: the JSONL metric stream it emits,
// concatenated after the bytes emitted before the checkpoint, equals the
// uninterrupted stream at any shard count — the golden determinism contract
// extended across a pause/resume boundary.
//
//	sess, _ := serve.Open(spec, out)
//	sess.Step(80)                  // serve 80 ingest batches
//	sess.Checkpoint(ckptFile)      // full state: model, cache, budgets, RNG cursors
//	...
//	sess, _ = serve.Resume(ckptFile, out) // possibly another process
//	sess.Run()                     // to completion, finals included
//
// Sessions are not safe for concurrent use; like the Service they wrap, all
// calls must come from one goroutine.
type Session struct {
	spec Spec
	cfg  Config
	svc  *Service
	src  Source
	mux  *workload.Mux      // tenant runs; nil otherwise
	ol   *workload.OpenLoop // single-stream runs; nil otherwise
	buf  []Request

	done   bool
	closed bool

	// ckptPending is set by Checkpoint and cleared by the next Step (or by
	// Detach): a session whose last act was a checkpoint is presumed to be
	// resumed elsewhere, and Close refuses to write final records into a
	// stream the resumed half will continue.
	ckptPending bool

	// Periodic checkpoint hook (CheckpointEvery): every ckptEvery batches,
	// Step captures the full checkpoint document and hands it to ckptFn.
	ckptEvery uint64
	ckptFn    func(doc []byte) error

	// Scenario runtime (tenant runs only): the event-timeline cursor, the
	// tenant name index, per-tenant diurnal profiles, and — under clients
	// mode — each tenant's totals at the last latency feedback.
	timeline   *scenario.Timeline
	tenantIdx  map[string]int
	diurnal    []diurnalState
	closedLoop bool
	fbMarks    []totals
}

// Open validates the spec, runs initial training on the warm-up trace it
// describes, and returns a session positioned at batch zero. JSONL metric
// records stream to metrics (nil discards them; the spec's Output field is a
// sink *name* for loaders to resolve, not resolved here).
func Open(spec Spec, metrics io.Writer) (*Session, error) {
	bundle, err := TrainBundleFromSpec(spec)
	if err != nil {
		return nil, err
	}
	return openWithBundle(spec, metrics, bundle)
}

// openWithBundle builds the session around an existing scoring bundle — the
// shared tail of Open (freshly trained) and Resume (restored).
func openWithBundle(spec Spec, metrics io.Writer, b *Bundle) (*Session, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Metrics = metrics
	if spec.Shadow != nil {
		sb, err := trainShadowBundle(spec, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Shadow = sb
	}
	svc, err := New(cfg, b)
	if err != nil {
		return nil, err
	}
	s := &Session{spec: spec, cfg: cfg, svc: svc, buf: make([]Request, cfg.BatchSize)}
	if len(spec.Tenants) > 0 {
		var mux *workload.Mux
		if spec.Clients != nil {
			mux, err = NewClientMux(spec.Tenants, spec.Clients.EffectiveUsers(), spec.Clients.Alpha)
		} else {
			mux, err = NewTenantMux(spec.Tenants)
		}
		if err != nil {
			return nil, err
		}
		s.mux = mux
		s.src = NewMuxSource(mux, spec.EffectiveOps())
		s.initScenario()
	} else {
		gen, err := spec.generator()
		if err != nil {
			return nil, err
		}
		ol, err := workload.NewOpenLoop(gen, spec.openLoopConfig())
		if err != nil {
			return nil, err
		}
		s.ol = ol
		s.src = NewOpenLoopSource(ol, spec.EffectiveOps())
	}
	return s, nil
}

// Step ingests and serves up to n batches, returning how many were
// processed. Fewer than n (including zero) means the source is exhausted;
// call Close to emit the final records.
func (s *Session) Step(n int) (int, error) {
	if s.closed {
		return 0, errors.New("serve: session is closed")
	}
	// Stepping after a checkpoint means the caller is continuing this
	// session locally, not resuming it elsewhere — Close becomes legal again.
	s.ckptPending = false
	steps := 0
	for steps < n && !s.done {
		if err := s.applyScenario(); err != nil {
			return steps, err
		}
		k := s.src.Next(s.buf)
		if k == 0 {
			s.done = true
			break
		}
		if err := s.svc.processBatch(s.buf[:k]); err != nil {
			return steps, err
		}
		s.feedbackLatency()
		steps++
		if s.ckptEvery > 0 && s.svc.batches%s.ckptEvery == 0 {
			var buf bytes.Buffer
			if err := s.checkpointTo(&buf); err != nil {
				return steps, err
			}
			if err := s.ckptFn(buf.Bytes()); err != nil {
				return steps, err
			}
		}
	}
	return steps, nil
}

// CheckpointEvery arranges for Step to capture a full checkpoint document
// every `every` batches (at the batch boundary, counting total batches
// served — a resumed session keeps the original cadence) and pass it to fn.
// The hook is how a supervisor gets periodic recovery points without driving
// the checkpoint cadence itself; it does not arm the Close-after-Checkpoint
// guard, since the session demonstrably keeps running. every = 0 removes
// the hook. A non-nil error from fn aborts the Step that triggered it.
func (s *Session) CheckpointEvery(every uint64, fn func(doc []byte) error) {
	if every > 0 && fn == nil {
		panic("serve: CheckpointEvery requires a callback")
	}
	s.ckptEvery = every
	s.ckptFn = fn
}

// Done reports whether the source is exhausted.
func (s *Session) Done() bool { return s.done }

// Batches returns how many ingest batches the run has served so far
// (counting those served before a checkpoint, for resumed sessions).
func (s *Session) Batches() uint64 { return s.svc.batches }

// Metrics merges the run's current state into an aggregate snapshot. Safe
// between Steps; it does not write metric records.
func (s *Session) Metrics() *Snapshot { return s.svc.Snapshot() }

// Close finishes the run: it emits the final partition/tenant/summary metric
// records, exactly as Service.Run does at source exhaustion. Idempotent.
//
// Closing a session whose last act was Checkpoint is an error: the
// checkpoint exists to resume the run elsewhere, and final records written
// here would corrupt the stream the resumed half continues. Call Detach to
// tear such a session down, or Step it again to keep serving locally (which
// re-arms Close).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	if s.ckptPending {
		return errors.New("serve: session was checkpointed to be resumed elsewhere; call Detach instead of Close (or Step to keep serving locally)")
	}
	s.closed = true
	return s.svc.metrics.writeFinal(s.svc.Snapshot(), len(s.cfg.Tenants) > 0)
}

// Detach tears the session down without emitting final records: it marks
// the session closed and writes nothing. This is the correct end of life
// for a session that was checkpointed for migration — the resumed copy owns
// the rest of the metric stream, including the finals. Idempotent; safe
// whether or not a checkpoint was taken.
func (s *Session) Detach() {
	if s.closed {
		return
	}
	s.closed = true
	s.ckptPending = false
}

// Run steps the session to source exhaustion, closes it, and returns the
// final snapshot — Service.Run's contract on top of the session lifecycle.
func (s *Session) Run() (*Snapshot, error) {
	for !s.done {
		if _, err := s.Step(1); err != nil {
			return nil, err
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return s.svc.Snapshot(), nil
}
