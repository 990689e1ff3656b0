package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/fpga"
	"repro/internal/gmm"
	"repro/internal/hbm"
	"repro/internal/linalg"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkpointFormat versions the on-disk checkpoint document.
//
// v3 stores each accounting cell's cumulative totals and each tenant's
// control-interval mark, where v2 stored per-interval copies (histograms
// have been bucket counts only since v2). Decoding is not strict, so an
// older document must be refused by its format rather than load with fields
// silently dropped: a v1 document would lose its retained raw samples, a v2
// one would resume with zero marks and queue sums and mis-measure the next
// control interval.
const checkpointFormat = "icgmm-session-v3"

// checkpointDoc is the complete persisted form of a paused session: the
// spec that opened it plus every piece of mutable state the run has
// accumulated. The contract is byte-identity: a session resumed from this
// document emits exactly the metric bytes the uninterrupted run would have
// emitted from this batch boundary on, at any shard count. That forces the
// document to be exhaustive — the scoring bundle (whose stored resident
// scores were possibly rescored by refreshes), every cache's contents and
// owner map, tenant budgets and residency, the controller's hill-climb and
// cooldown state, every histogram's bucket counts and exact accumulator, and
// the workload streams' RNG cursors. Floats survive the JSON round trip
// exactly (encoding/json emits the shortest representation that re-parses
// to identical bits), so nothing here is approximate.
type checkpointDoc struct {
	Format string       `json:"format"`
	Spec   Spec         `json:"spec"`
	State  serviceState `json:"state"`
	Source sourceState  `json:"source"`
}

type serviceState struct {
	Seq                uint64             `json:"seq"`
	Batches            uint64             `json:"batches"`
	IntervalThroughput stats.WelfordState `json:"interval_throughput"`
	LastIntervalOps    uint64             `json:"last_interval_ops"`
	LastMakespanNs     int64              `json:"last_makespan_ns"`

	Bundle             bundleState      `json:"bundle"`
	Refresher          refresherState   `json:"refresher"`
	Window             windowState      `json:"window"`
	Tenants            []tenantCtlState `json:"tenants"`
	ControllerCooldown int              `json:"controller_cooldown,omitempty"`
	Partitions         []partitionState `json:"partitions"`

	// Dataflow interval cursors (see Service; all omitted under flat timing
	// so flat checkpoints are byte-compatible with earlier builds).
	LastDFQueueSum uint64 `json:"last_df_queue_sum,omitempty"`
	LastDFOps      uint64 `json:"last_df_ops,omitempty"`
	LastDFStalls   uint64 `json:"last_df_stalls,omitempty"`
	LastGMMBusy    int64  `json:"last_gmm_busy,omitempty"`
	LastSSDBusy    int64  `json:"last_ssd_busy,omitempty"`
	LastCtrlBusy   int64  `json:"last_ctrl_busy,omitempty"`
	LastWallCycles int64  `json:"last_wall_cycles,omitempty"`
}

// bundleState is the active scoring bundle: the GMM's components verbatim
// (restored without renormalization, see gmm.RestoreModel), the fitted
// normalizer, and the calibrated base threshold.
type bundleState struct {
	Components []componentState `json:"components"`
	Norm       trace.Normalizer `json:"norm"`
	Threshold  float64          `json:"threshold"`
}

type componentState struct {
	Weight float64    `json:"weight"`
	Mean   [2]float64 `json:"mean"`
	Cov    [3]float64 `json:"cov"` // xx, xy, yy of the symmetric covariance
}

type refresherState struct {
	Started     uint64        `json:"started"`
	Installed   uint64        `json:"installed"`
	Failed      uint64        `json:"failed,omitempty"`
	PendingFire bool          `json:"pending_fire,omitempty"`
	Detector    detectorState `json:"detector"`
}

type detectorState struct {
	Baseline float64 `json:"baseline"`
	Seen     int     `json:"seen"`
	Bad      int     `json:"bad,omitempty"`
	Good     int     `json:"good,omitempty"`
	Fired    bool    `json:"fired,omitempty"`
}

// windowState captures the refit sample ring in its exact layout: Items is
// buf[:pos] while filling, the whole ring (wrap point and all) once full.
type windowState struct {
	Items []trace.Sample `json:"items,omitempty"`
	Pos   int            `json:"pos"`
	Full  bool           `json:"full,omitempty"`
}

// tenantCtlState is one tenant's serving-time state: the controller's
// accumulated multiplier, hill-climb memory and control-interval mark.
type tenantCtlState struct {
	Mult            float64 `json:"mult"`
	Threshold       float64 `json:"threshold"`
	LastMetric      float64 `json:"last_metric,omitempty"`
	LastWithin      bool    `json:"last_within,omitempty"`
	LastValid       bool    `json:"last_valid,omitempty"`
	CtrlDir         float64 `json:"ctrl_dir"`
	CtrlPrevViolate bool    `json:"ctrl_prev_violate,omitempty"`
	SatHold         int     `json:"sat_hold,omitempty"`
	// EWMA of the tenant's measured headroom (donor selection); omitted for
	// tenants that were never measured so earlier checkpoints round-trip.
	HeadroomEWMA float64 `json:"headroom_ewma,omitempty"`
	HeadroomSeen bool    `json:"headroom_seen,omitempty"`
	// The tenant's cumulative totals at the last control step (zero
	// without a controller).
	MarkOps      uint64 `json:"mark_ops,omitempty"`
	MarkHits     uint64 `json:"mark_hits,omitempty"`
	MarkLatSumNs int64  `json:"mark_lat_sum_ns,omitempty"`
	MarkQueueSum uint64 `json:"mark_queue_sum,omitempty"`
}

// partitionState is one partition's complete device state.
type partitionState struct {
	Cache        cache.State          `json:"cache"`
	Policy       policyState          `json:"policy"`
	HBM          hbm.State            `json:"hbm"`
	SSD          ssd.State            `json:"ssd"`
	Link         cxl.Stats            `json:"link"`
	NowNs        int64                `json:"now_ns"`
	EngineBusyNs int64                `json:"engine_busy_ns,omitempty"`
	Hist         stats.HistogramState `json:"hist"`
	Tenants      []tenantCellState    `json:"tenants"`

	// Dataflow timing state (omitted under flat timing): the fpga timeline's
	// cursors and outstanding-window occupancy, plus the partition's
	// host-routing and stall accounting.
	Dataflow *fpga.TimelineState `json:"dataflow,omitempty"`
	HostOps  uint64              `json:"host_ops,omitempty"`
	DFStalls uint64              `json:"df_stalls,omitempty"`

	// Shadow-policy state (omitted when no shadow is configured, keeping
	// shadow-less checkpoints byte-compatible with earlier builds).
	Shadow *shadowPartState `json:"shadow,omitempty"`
}

// policyState is the tenant policy engine's per-partition state: the stored
// eviction keys, the owner map, and the capacity ledger.
type policyState struct {
	Scores     [][]float64 `json:"scores"`
	LastUse    [][]uint64  `json:"last_use"`
	Owner      [][]int16   `json:"owner"`
	Thresholds []float64   `json:"thresholds"`
	Budget     []int       `json:"budget"`
	Resident   []int       `json:"resident"`
}

// tenantCellState is one (partition, tenant) accounting cell. Its op count
// and latency sum ride in Hist's exact accumulator.
type tenantCellState struct {
	Hits          uint64                `json:"hits,omitempty"`
	BytesAdmitted uint64                `json:"bytes_admitted,omitempty"`
	QueueSum      uint64                `json:"queue_sum,omitempty"`
	Hist          stats.HistogramState  `json:"hist"`
	CXL           stats.HistogramState  `json:"cxl"`
	HBM           stats.HistogramState  `json:"hbm"`
	SSD           stats.HistogramState  `json:"ssd"`
	IntervalHist  *stats.HistogramState `json:"interval_hist,omitempty"`
}

// sourceState is the workload stream's cursor: which of the two source
// shapes the spec built, how many requests remain, and the underlying
// generator state (segment index, in-segment position, virtual clock, shift
// flags — everything needed to regenerate the stream mid-flight).
type sourceState struct {
	Remaining uint64                  `json:"remaining"`
	Mux       *workload.MuxState      `json:"mux,omitempty"`
	OpenLoop  *workload.OpenLoopState `json:"open_loop,omitempty"`
}

// Checkpoint serializes the session's full mutable state to w. It may only
// be called between Steps — which is the only time a caller can call it,
// since sessions are single-goroutine — and is non-destructive: the session
// keeps serving afterwards, and the same session may be checkpointed many
// times.
//
// A checkpoint taken here is presumed to seed a resume elsewhere: until the
// session Steps again, Close is an error and Detach is the way to tear it
// down (see Close). The periodic CheckpointEvery hook does not carry this
// presumption.
func (s *Session) Checkpoint(w io.Writer) error {
	if err := s.checkpointTo(w); err != nil {
		return err
	}
	s.ckptPending = true
	return nil
}

// checkpointTo is Checkpoint without the resume-elsewhere presumption — the
// shared core of the public method and the CheckpointEvery hook.
func (s *Session) checkpointTo(w io.Writer) error {
	if s.closed {
		return errors.New("serve: cannot checkpoint a closed session")
	}
	// A checkpoint presumes the metric stream up to here reached the sink:
	// fail now if it didn't, rather than resume from a checkpoint whose
	// preceding records were silently dropped.
	if s.svc.metrics.err != nil {
		return fmt.Errorf("serve: metrics sink: %w", s.svc.metrics.err)
	}
	doc := checkpointDoc{Format: checkpointFormat, Spec: s.spec, State: s.svc.exportState()}
	doc.Source.Remaining = s.spec.EffectiveOps() - s.svc.seq
	switch {
	case s.mux != nil:
		ms := s.mux.State()
		doc.Source.Mux = &ms
	case s.ol != nil:
		os := s.ol.State()
		doc.Source.OpenLoop = &os
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	s.svc.emit(Event{Kind: EventCheckpoint})
	return nil
}

// Resume rebuilds a session from a checkpoint written by Checkpoint,
// possibly in another process. The restored session continues the run
// exactly where it paused: no retraining happens (the scoring bundle is
// part of the checkpoint), and the metric records it writes to metrics
// continue the paused session's stream byte for byte.
func Resume(r io.Reader, metrics io.Writer) (*Session, error) {
	var doc checkpointDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("serve: decoding checkpoint: %w", err)
	}
	if doc.Format != checkpointFormat {
		return nil, fmt.Errorf("serve: unknown checkpoint format %q (this build reads %q)", doc.Format, checkpointFormat)
	}
	kind := ScoringFloat64
	if doc.Spec.Scoring != "" {
		k, err := ParseScoringKind(doc.Spec.Scoring)
		if err != nil {
			return nil, err
		}
		kind = k
	}
	bundle, err := doc.State.Bundle.restore(kind)
	if err != nil {
		return nil, err
	}
	sess, err := openWithBundle(doc.Spec, metrics, bundle)
	if err != nil {
		return nil, err
	}
	if err := sess.svc.restoreState(doc.State); err != nil {
		return nil, err
	}
	switch {
	case doc.Source.Mux != nil:
		if sess.mux == nil {
			return nil, errors.New("serve: checkpoint carries a mux source but the spec is single-stream")
		}
		// Replay the scenario timeline's already-applied prefix before the
		// mux cursor lands: restoring an open-loop stream regenerates its
		// in-flight trace segment from the current generator, so phase swaps
		// (and rates, which are not part of the stream state) must be
		// re-derived first.
		if err := sess.replayScenario(); err != nil {
			return nil, err
		}
		if err := sess.mux.RestoreState(*doc.Source.Mux); err != nil {
			return nil, err
		}
		sess.src.(*muxSource).remaining = doc.Source.Remaining
		sess.syncFeedbackCursors()
	case doc.Source.OpenLoop != nil:
		if sess.ol == nil {
			return nil, errors.New("serve: checkpoint carries an open-loop source but the spec is multi-tenant")
		}
		if err := sess.ol.RestoreState(*doc.Source.OpenLoop); err != nil {
			return nil, err
		}
		sess.src.(*openLoopSource).remaining = doc.Source.Remaining
	default:
		return nil, errors.New("serve: checkpoint carries no source state")
	}
	return sess, nil
}

// exportState captures the service's mutable state at a batch boundary.
func (s *Service) exportState() serviceState {
	st := serviceState{
		Seq:                s.seq,
		Batches:            s.batches,
		IntervalThroughput: s.intervalThroughput.State(),
		LastIntervalOps:    s.lastIntervalOps,
		LastMakespanNs:     s.lastMakespan,
		Bundle:             exportBundle(s.refresher.bundle),
		Refresher: refresherState{
			Started:     s.refresher.started,
			Installed:   s.refresher.installed,
			Failed:      s.refresher.failed,
			PendingFire: s.refresher.pendingFire,
			Detector: detectorState{
				Baseline: s.refresher.detector.baseline,
				Seen:     s.refresher.detector.seen,
				Bad:      s.refresher.detector.bad,
				Good:     s.refresher.detector.good,
				Fired:    s.refresher.detector.fired,
			},
		},
		Window:  s.window.state(),
		Tenants: make([]tenantCtlState, len(s.tenants)),
	}
	for i, t := range s.tenants {
		st.Tenants[i] = tenantCtlState{
			Mult:            t.mult,
			Threshold:       t.threshold,
			LastMetric:      t.lastMetric,
			LastWithin:      t.lastWithin,
			LastValid:       t.lastValid,
			CtrlDir:         t.ctrlDir,
			CtrlPrevViolate: t.ctrlPrevViolate,
			SatHold:         t.satHold,
			HeadroomEWMA:    t.headroomEWMA,
			HeadroomSeen:    t.headroomSeen,
			MarkOps:         t.mark.ops,
			MarkHits:        t.mark.hits,
			MarkLatSumNs:    t.mark.latSumNs,
			MarkQueueSum:    t.mark.queueSum,
		}
	}
	if s.ctrl != nil {
		st.ControllerCooldown = s.ctrl.cooldown
	}
	st.LastDFQueueSum = s.lastDFQueueSum
	st.LastDFOps = s.lastDFOps
	st.LastDFStalls = s.lastDFStalls
	st.LastGMMBusy = s.lastGMMBusy
	st.LastSSDBusy = s.lastSSDBusy
	st.LastCtrlBusy = s.lastCtrlBusy
	st.LastWallCycles = s.lastWallCycles
	st.Partitions = make([]partitionState, len(s.parts))
	for i, p := range s.parts {
		ps := partitionState{
			Cache:        p.cache.Dump(),
			Policy:       p.pol.exportState(),
			HBM:          p.mem.State(),
			SSD:          p.dev.State(),
			Link:         p.link.Stats(),
			NowNs:        p.now,
			EngineBusyNs: p.engineBusy,
			Hist:         p.hist.State(),
			Tenants:      make([]tenantCellState, len(p.ten)),
			HostOps:      p.hostOps,
			DFStalls:     p.dfStalls,
		}
		if p.df != nil {
			tls := p.df.Timeline.State()
			ps.Dataflow = &tls
		}
		if p.shadow != nil {
			ss := p.shadow.exportState()
			ps.Shadow = &ss
		}
		for t := range p.ten {
			cell := &p.ten[t]
			cs := tenantCellState{
				Hits:          cell.hits,
				BytesAdmitted: cell.bytesAdmitted,
				QueueSum:      cell.queueSum,
				Hist:          cell.hist.State(),
				CXL:           cell.cxlHist.State(),
				HBM:           cell.hbmHist.State(),
				SSD:           cell.ssdHist.State(),
			}
			if cell.intervalHist != nil {
				hs := cell.intervalHist.State()
				cs.IntervalHist = &hs
			}
			ps.Tenants[t] = cs
		}
		st.Partitions[i] = ps
	}
	return st
}

// restoreState replaces the freshly-built service's mutable state with the
// checkpointed one. The service must have been built from the same spec.
func (s *Service) restoreState(st serviceState) error {
	if len(st.Partitions) != len(s.parts) {
		return fmt.Errorf("serve: checkpoint has %d partitions, spec builds %d", len(st.Partitions), len(s.parts))
	}
	if len(st.Tenants) != len(s.tenants) {
		return fmt.Errorf("serve: checkpoint has %d tenants, spec builds %d", len(st.Tenants), len(s.tenants))
	}
	s.seq = st.Seq
	s.batches = st.Batches
	s.intervalThroughput.RestoreState(st.IntervalThroughput)
	s.lastIntervalOps = st.LastIntervalOps
	s.lastMakespan = st.LastMakespanNs
	s.refresher.started = st.Refresher.Started
	s.refresher.installed = st.Refresher.Installed
	s.refresher.failed = st.Refresher.Failed
	s.refresher.pendingFire = st.Refresher.PendingFire
	s.refresher.detector.baseline = st.Refresher.Detector.Baseline
	s.refresher.detector.seen = st.Refresher.Detector.Seen
	s.refresher.detector.bad = st.Refresher.Detector.Bad
	s.refresher.detector.good = st.Refresher.Detector.Good
	s.refresher.detector.fired = st.Refresher.Detector.Fired
	if err := s.window.restore(st.Window); err != nil {
		return err
	}
	for i, ts := range st.Tenants {
		t := s.tenants[i]
		t.mult = ts.Mult
		t.threshold = ts.Threshold
		t.lastMetric = ts.LastMetric
		t.lastWithin = ts.LastWithin
		t.lastValid = ts.LastValid
		t.ctrlDir = ts.CtrlDir
		t.ctrlPrevViolate = ts.CtrlPrevViolate
		t.satHold = ts.SatHold
		t.headroomEWMA = ts.HeadroomEWMA
		t.headroomSeen = ts.HeadroomSeen
		t.mark = totals{ops: ts.MarkOps, hits: ts.MarkHits, latSumNs: ts.MarkLatSumNs, queueSum: ts.MarkQueueSum}
	}
	if s.ctrl != nil {
		s.ctrl.cooldown = st.ControllerCooldown
	}
	s.lastDFQueueSum = st.LastDFQueueSum
	s.lastDFOps = st.LastDFOps
	s.lastDFStalls = st.LastDFStalls
	s.lastGMMBusy = st.LastGMMBusy
	s.lastSSDBusy = st.LastSSDBusy
	s.lastCtrlBusy = st.LastCtrlBusy
	s.lastWallCycles = st.LastWallCycles
	for i, ps := range st.Partitions {
		p := s.parts[i]
		if err := p.cache.LoadDump(ps.Cache); err != nil {
			return err
		}
		if err := p.pol.restoreState(ps.Policy); err != nil {
			return err
		}
		if err := p.mem.RestoreState(ps.HBM); err != nil {
			return err
		}
		if err := p.dev.RestoreState(ps.SSD); err != nil {
			return err
		}
		p.link.RestoreStats(ps.Link)
		p.now = ps.NowNs
		p.engineBusy = ps.EngineBusyNs
		p.hostOps = ps.HostOps
		p.dfStalls = ps.DFStalls
		switch {
		case p.df == nil && ps.Dataflow != nil:
			return fmt.Errorf("serve: checkpoint partition %d carries dataflow timeline state but the spec's timing is flat", i)
		case p.df != nil && ps.Dataflow == nil:
			return fmt.Errorf("serve: spec timing is dataflow but checkpoint partition %d has no timeline state", i)
		case p.df != nil:
			if err := p.df.Timeline.RestoreState(*ps.Dataflow); err != nil {
				return fmt.Errorf("serve: checkpoint partition %d: %w", i, err)
			}
		}
		switch {
		case ps.Shadow != nil && p.shadow != nil:
			if err := p.shadow.restoreState(*ps.Shadow); err != nil {
				return fmt.Errorf("serve: checkpoint partition %d shadow: %w", i, err)
			}
		case ps.Shadow != nil || p.shadow != nil:
			return fmt.Errorf("serve: checkpoint partition %d shadow-policy presence mismatch with the spec", i)
		}
		if err := p.hist.RestoreState(ps.Hist); err != nil {
			return err
		}
		if len(ps.Tenants) != len(p.ten) {
			return fmt.Errorf("serve: checkpoint partition %d has %d tenant cells, spec builds %d", i, len(ps.Tenants), len(p.ten))
		}
		for t, cs := range ps.Tenants {
			cell := &p.ten[t]
			cell.hits = cs.Hits
			cell.bytesAdmitted = cs.BytesAdmitted
			cell.queueSum = cs.QueueSum
			if err := cell.hist.RestoreState(cs.Hist); err != nil {
				return err
			}
			if err := cell.cxlHist.RestoreState(cs.CXL); err != nil {
				return err
			}
			if err := cell.hbmHist.RestoreState(cs.HBM); err != nil {
				return err
			}
			if err := cell.ssdHist.RestoreState(cs.SSD); err != nil {
				return err
			}
			switch {
			case (cs.IntervalHist != nil) != (cell.intervalHist != nil):
				return fmt.Errorf("serve: checkpoint partition %d tenant %d interval-histogram presence mismatch", i, t)
			case cs.IntervalHist != nil:
				if err := cell.intervalHist.RestoreState(*cs.IntervalHist); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// exportBundle flattens the active bundle. Checkpoints always persist the
// float model: under q16 scoring the quantized form is a pure function of it
// (and of the spec's scoring field), so resume re-derives it bit-identically
// instead of widening the wire format.
func exportBundle(b *Bundle) bundleState {
	bs := bundleState{
		Components: make([]componentState, len(b.Model.Components)),
		Norm:       b.Norm,
		Threshold:  b.Threshold,
	}
	for i, c := range b.Model.Components {
		bs.Components[i] = componentState{
			Weight: c.Weight,
			Mean:   [2]float64{c.Mean.X, c.Mean.Y},
			Cov:    [3]float64{c.Cov.XX, c.Cov.XY, c.Cov.YY},
		}
	}
	return bs
}

// restore rebuilds the bundle, bit-identically: components are fed through
// gmm.RestoreModel, which re-derives cached quantities without the weight
// renormalization that would perturb low-order bits. Under q16 scoring the
// quantized scorer is re-derived from the restored float model — Quantize is
// deterministic, so the resumed run scores the same bits the paused one did.
func (bs bundleState) restore(kind ScoringKind) (*Bundle, error) {
	comps := make([]gmm.Component, len(bs.Components))
	for i, c := range bs.Components {
		comps[i] = gmm.Component{
			Weight: c.Weight,
			Mean:   linalg.V2(c.Mean[0], c.Mean[1]),
			Cov:    linalg.Sym2{XX: c.Cov[0], XY: c.Cov[1], YY: c.Cov[2]},
		}
	}
	model, err := gmm.RestoreModel(comps)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring checkpoint bundle: %w", err)
	}
	b := &Bundle{Model: model, Norm: bs.Norm, Threshold: bs.Threshold}
	if !b.deriveScorer(kind) {
		return nil, fmt.Errorf("serve: restoring checkpoint bundle: %d model constants saturate Q16.16", b.Quant.Saturated)
	}
	return b, nil
}

// exportState snapshots the policy engine's per-partition state.
func (p *tenantGMM) exportState() policyState {
	st := policyState{
		Scores:     make([][]float64, p.nSets),
		LastUse:    make([][]uint64, p.nSets),
		Owner:      make([][]int16, p.nSets),
		Thresholds: append([]float64(nil), p.thresholds...),
		Budget:     append([]int(nil), p.budget...),
		Resident:   append([]int(nil), p.resident...),
	}
	for i := 0; i < p.nSets; i++ {
		st.Scores[i] = append([]float64(nil), p.scores[i]...)
		st.LastUse[i] = append([]uint64(nil), p.lastUse[i]...)
		st.Owner[i] = append([]int16(nil), p.owner[i]...)
	}
	return st
}

// restoreState replaces the policy engine's state. Geometry and tenant
// count must match the freshly-attached engine.
func (p *tenantGMM) restoreState(st policyState) error {
	if len(st.Scores) != p.nSets || len(st.LastUse) != p.nSets || len(st.Owner) != p.nSets {
		return fmt.Errorf("serve: checkpoint policy state has %d sets, engine has %d", len(st.Scores), p.nSets)
	}
	if len(st.Thresholds) != len(p.thresholds) || len(st.Budget) != len(p.budget) || len(st.Resident) != len(p.resident) {
		return errors.New("serve: checkpoint policy state tenant count mismatch")
	}
	for i := 0; i < p.nSets; i++ {
		if len(st.Scores[i]) != p.ways || len(st.LastUse[i]) != p.ways || len(st.Owner[i]) != p.ways {
			return fmt.Errorf("serve: checkpoint policy state set %d has wrong way count", i)
		}
		copy(p.scores[i], st.Scores[i])
		copy(p.lastUse[i], st.LastUse[i])
		copy(p.owner[i], st.Owner[i])
	}
	copy(p.thresholds, st.Thresholds)
	copy(p.budget, st.Budget)
	copy(p.resident, st.Resident)
	return nil
}

// state exports the refit sample ring in its exact layout.
func (w *sampleWindow) state() windowState {
	st := windowState{Pos: w.pos, Full: w.full}
	if w.full {
		st.Items = append([]trace.Sample(nil), w.buf...)
	} else if w.pos > 0 {
		st.Items = append([]trace.Sample(nil), w.buf[:w.pos]...)
	}
	return st
}

// restore rebuilds the ring. The receiver's capacity (from the spec) must
// accommodate the checkpointed layout.
func (w *sampleWindow) restore(st windowState) error {
	switch {
	case st.Full:
		if len(st.Items) != len(w.buf) {
			return fmt.Errorf("serve: checkpoint window holds %d samples, spec sizes the ring at %d", len(st.Items), len(w.buf))
		}
		copy(w.buf, st.Items)
	default:
		if len(st.Items) != st.Pos || st.Pos > len(w.buf) {
			return errors.New("serve: checkpoint window cursor inconsistent with its samples")
		}
		copy(w.buf[:st.Pos], st.Items)
	}
	w.pos, w.full = st.Pos, st.Full
	return nil
}
