package serve

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// This file is the session-side scenario engine: it walks the spec's event
// timeline (internal/scenario) and applies each event at the batch boundary
// it names, on the ingest goroutine, before that batch is pulled from the
// source. Every effect is a pure function of (spec, batches) — never of
// shard count or wall time — so scenario runs keep the bit-identical
// determinism contract, and a resumed session re-derives the already-applied
// prefix via replayScenario instead of checkpointing configuration state.

// diurnalState tracks one tenant's active sinusoidal rate profile. The
// offered rate is recomputed from it at every batch boundary
// (scenario.DiurnalRate is pure), so the state is just the profile's
// parameters; a later rate event deactivates it.
type diurnalState struct {
	active bool
	base   float64
	amp    float64
	start  uint64
	period uint64
}

// initScenario wires the session's scenario runtime after the tenant mux is
// built: the timeline cursor, the tenant name index, per-tenant diurnal
// slots, and — under clients mode — the closed-loop feedback cursors.
func (s *Session) initScenario() {
	s.timeline = scenario.NewTimeline(s.spec.Scenario)
	s.tenantIdx = make(map[string]int, len(s.spec.Tenants))
	for i, t := range s.spec.Tenants {
		s.tenantIdx[t.Name] = i
	}
	s.diurnal = make([]diurnalState, len(s.spec.Tenants))
	if s.spec.Clients != nil {
		s.closedLoop = true
		s.fbMarks = make([]totals, len(s.spec.Tenants))
	}
}

// applyScenario applies the events scheduled for the current batch boundary
// and re-evaluates active diurnal profiles. Called at the top of every Step
// iteration, before the batch is pulled; single-stream sessions have no
// timeline and return immediately.
func (s *Session) applyScenario() error {
	if s.timeline == nil {
		return nil
	}
	for _, ev := range s.timeline.Take(s.svc.batches) {
		if err := s.applyEvent(ev, false); err != nil {
			return err
		}
	}
	// Diurnal rates are recomputed at every boundary as a pure function of
	// the batch index, so a resumed run lands on the identical schedule
	// without any rate state in the checkpoint.
	for ti := range s.diurnal {
		if d := &s.diurnal[ti]; d.active {
			s.mux.SetRate(ti, scenario.DiurnalRate(d.base, d.amp, d.start, d.period, s.svc.batches))
		}
	}
	return nil
}

// applyEvent applies one timeline event. With replay set (resume) only the
// configuration side effects run — no rebalance (budgets are restored from
// the checkpoint), no metric records, no observer events.
func (s *Session) applyEvent(ev scenario.Event, replay bool) error {
	ti, ok := s.tenantIdx[ev.Tenant]
	if !ok {
		return fmt.Errorf("serve: scenario event names unknown tenant %q", ev.Tenant)
	}
	switch ev.Kind {
	case scenario.KindJoin, scenario.KindLeave:
		s.mux.SetActive(ti, ev.Kind == scenario.KindJoin)
		if !replay {
			s.rebalanceShares(ev, ti)
		}
	case scenario.KindRate:
		s.diurnal[ti].active = false
		s.mux.SetRate(ti, ev.Rate)
		if !replay {
			rate := ev.Rate
			s.svc.metrics.write(metricRecord{
				Kind:       "scenario",
				Batch:      s.svc.batches,
				Tenant:     ev.Tenant,
				Event:      ev.Kind,
				RatePerSec: &rate,
			})
		}
	case scenario.KindDiurnal:
		s.diurnal[ti] = diurnalState{
			active: true,
			base:   ev.Rate,
			amp:    ev.Amp,
			start:  ev.Batch,
			period: ev.Period,
		}
		if !replay {
			rate := ev.Rate
			s.svc.metrics.write(metricRecord{
				Kind:       "scenario",
				Batch:      s.svc.batches,
				Tenant:     ev.Tenant,
				Event:      ev.Kind,
				RatePerSec: &rate,
			})
		}
	case scenario.KindPhase:
		gen, err := workload.ByName(ev.Workload)
		if err != nil {
			return fmt.Errorf("serve: scenario phase event: %w", err)
		}
		s.mux.SetGenerator(ti, gen)
		if !replay {
			s.svc.metrics.write(metricRecord{
				Kind:     "scenario",
				Batch:    s.svc.batches,
				Tenant:   ev.Tenant,
				Event:    ev.Kind,
				Workload: ev.Workload,
			})
		}
	default:
		return fmt.Errorf("serve: scenario event kind %q unknown", ev.Kind)
	}
	return nil
}

// rebalanceShares redistributes per-partition HBM budgets after tenant
// churn: active tenants split the available capacity in proportion to their
// spec shares, departed tenants keep a single block per partition (a
// zero-budget tenant is a validated-away corner in the policy engine), and
// the per-partition total is conserved exactly. Every move goes through the
// existing transferShare machinery, so the rebalance is documented in the
// metric stream as ordinary "share" records followed by one "scenario"
// record naming the churn event.
func (s *Session) rebalanceShares(ev scenario.Event, churned int) {
	svc := s.svc
	n := len(svc.tenants)
	if n < 2 {
		return
	}
	// Budgets are identical across partitions (transferShare moves them in
	// lockstep), so partition 0 is the ledger.
	cur := make([]int, n)
	total := 0
	for ti := range cur {
		cur[ti] = svc.parts[0].pol.Budget(ti)
		total += cur[ti]
	}
	active := make([]bool, n)
	nInactive := 0
	var activeSum float64
	for ti, t := range svc.tenants {
		active[ti] = s.mux.Active(ti)
		if active[ti] {
			activeSum += t.spec.Share
		} else {
			nInactive++
		}
	}
	avail := total - nInactive
	target := make([]int, n)
	sum := 0
	for ti, t := range svc.tenants {
		if active[ti] {
			target[ti] = int(t.spec.Share / activeSum * float64(avail))
			if target[ti] < 1 {
				target[ti] = 1
			}
		} else {
			target[ti] = 1
		}
		sum += target[ti]
	}
	// Normalize the rounded targets to exactly the conserved total: shave
	// the largest target (> 1, ties to the lowest index) while over, pad
	// active tenants round-robin in index order while under.
	for sum > total {
		big, bigV := -1, 1
		for ti, v := range target {
			if v > bigV {
				big, bigV = ti, v
			}
		}
		if big == -1 {
			break
		}
		target[big]--
		sum--
	}
	for sum < total {
		grew := false
		for ti := range target {
			if sum == total {
				break
			}
			if active[ti] {
				target[ti]++
				sum++
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	// Settle the deltas as pairwise moves: first tenant needing blocks
	// receives from the first tenant holding surplus, index order on both
	// sides — deterministic, and each move is an ordinary share transfer.
	for {
		recv := -1
		for ti := range target {
			if cur[ti] < target[ti] {
				recv = ti
				break
			}
		}
		if recv == -1 {
			break
		}
		donor := -1
		for ti := range target {
			if cur[ti] > target[ti] {
				donor = ti
				break
			}
		}
		if donor == -1 {
			break
		}
		q := target[recv] - cur[recv]
		if surplus := cur[donor] - target[donor]; surplus < q {
			q = surplus
		}
		svc.transferShare(donor, recv, q)
		cur[donor] -= q
		cur[recv] += q
	}
	var budget uint64
	for _, p := range svc.parts {
		budget += uint64(p.pol.Budget(churned))
	}
	svc.metrics.write(metricRecord{
		Kind:         "scenario",
		Batch:        svc.batches,
		Tenant:       ev.Tenant,
		Event:        ev.Kind,
		BudgetBlocks: budget,
	})
	kind := EventTenantJoin
	if ev.Kind == scenario.KindLeave {
		kind = EventTenantLeave
	}
	svc.emit(Event{Kind: kind, Tenant: ev.Tenant, Blocks: budget})
}

// replayScenario fast-forwards the timeline through the prefix a resumed
// session has already applied, re-deriving the configuration effects (active
// flags, rates, diurnal profiles, generator swaps) without re-running
// rebalances or re-emitting records. It must run before the mux's cursor is
// restored: OpenLoop.RestoreState regenerates the in-flight trace segment
// from the generator current at restore time, so phase swaps have to land
// first.
func (s *Session) replayScenario() error {
	if s.timeline == nil {
		return nil
	}
	for _, ev := range s.timeline.Replay(s.svc.batches) {
		if err := s.applyEvent(ev, true); err != nil {
			return err
		}
	}
	return nil
}

// feedbackLatency closes the loop between served latency and client arrival
// pacing: after each batch, every tenant's latency delta over the batch
// (its cumulative totals against the session's feedback marks) is folded
// into its closed-loop stream's completion estimate. No-op for open-loop
// runs.
func (s *Session) feedbackLatency() {
	if !s.closedLoop {
		return
	}
	for ti, mark := range s.fbMarks {
		now := s.svc.tenantTotals(ti)
		if dOps := now.ops - mark.ops; dOps > 0 {
			s.mux.ObserveLatency(ti, float64(now.latSumNs-mark.latSumNs)/float64(dOps))
		}
		s.fbMarks[ti] = now
	}
}

// syncFeedbackCursors aligns the feedback marks with the current cumulative
// totals without observing anything — a resumed session starts from the
// checkpointed totals (the latency estimate itself rides in the closed-loop
// stream's own state).
func (s *Session) syncFeedbackCursors() {
	if !s.closedLoop {
		return
	}
	for ti := range s.fbMarks {
		s.fbMarks[ti] = s.svc.tenantTotals(ti)
	}
}
