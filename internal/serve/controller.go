package serve

import (
	"errors"

	"repro/internal/stats"
)

// ControlConfig parameterizes the adaptive per-tenant threshold controller.
// Every Every batches the controller measures each QoS-bearing tenant's
// metric over the elapsed control interval and nudges that tenant's
// admission threshold with a deterministic multiplicative hill-climb:
//
//   - QoS violated beyond its band: step the threshold in the tenant's
//     current search direction (loosening first — admit more). If the
//     previous violated step failed to improve the metric, reverse the
//     direction before stepping. The reversal is what finds QoS optima on
//     non-monotone response curves: a tenant whose working set exceeds its
//     capacity share loses hits both when the threshold is too tight (hot
//     pages bypassed) and when it is too loose (admit-everything thrashes
//     its share), and only an intermediate threshold — reachable from
//     either side — holds the hot head stable.
//   - comfortably inside the target: tighten (admit less), freeing device
//     bandwidth for tenants that need it, and arm the next violated step to
//     loosen (the overshoot correction).
//   - inside the band: hold.
//
// The tenant's threshold is base*mult, where base is the active bundle's
// calibrated threshold and mult is the controller's accumulated factor — so
// a model refresh rebases every tenant onto the new calibration while
// preserving the controller's learned offset. The step rule reads only
// virtual-time interval metrics, which in sync-refresh mode are themselves
// bit-identical at any shard count, so controlled runs keep the serving
// subsystem's determinism contract.
//
// # Elastic capacity shares (the second lever)
//
// With ShareAdapt set, the controller also reallocates HBM capacity between
// tenants: a violated tenant whose threshold lever has *saturated* — its
// multiplier pinned at MinMult/MaxMult, or its violated steps no longer
// improving the metric — for ShareHold consecutive violated intervals bids
// for capacity from the most comfortable tenant. A transfer moves a fixed
// ShareQuantum of blocks per partition from donor to receiver at the batch
// boundary (never mid-batch): budgets shift in every partition and the
// donor's overflow blocks are evicted coldest-first immediately, so the
// no-overcommit invariant holds through every resize. Hysteresis keeps
// shares from thrashing: the receiver must be violated beyond its band AND
// resident within one quantum of its current budget (capacity, not the
// threshold or a stale model, is provably its binding constraint), the
// donor must be comfortable beyond its band (tenants merely holding neither
// give nor take), a donor never shrinks below ShareFloor blocks per
// partition, and after any transfer the share lever pauses for ShareCooldown
// control intervals. Donor and receiver selection is deterministic (worst
// relative violation takes, widest relative headroom gives, ties to the
// lowest tenant index), so share-adapted runs keep the bit-identical-at-any-
// shard-count contract. Tenants without a QoS target are never measured and
// therefore neither bid nor donate: their static share is untouched.
type ControlConfig struct {
	// Every is the control period in ingest batches (default 16).
	Every int
	// Step is the multiplicative threshold step, > 1 (default 1.25).
	Step float64
	// MinMult/MaxMult clamp the accumulated multiplier (defaults 2^-10 and
	// 2^10), bounding how far the controller can push a tenant away from
	// the calibrated threshold.
	MinMult float64
	MaxMult float64
	// ShareAdapt enables the capacity-share lever described above.
	ShareAdapt bool
	// ShareQuantum is the number of blocks per partition one transfer moves
	// (default 8).
	ShareQuantum int
	// ShareHold is how many consecutive violated control intervals a
	// tenant's threshold lever must sit saturated before it may bid for
	// capacity (default 2).
	ShareHold int
	// ShareCooldown is how many control intervals the share lever pauses
	// after a transfer. Zero means no pause; the packaged defaults
	// (DefaultControlConfig, the CLI flag) use 4.
	ShareCooldown int
	// ShareFloor is the smallest per-partition block budget a donor may be
	// left holding (default ShareQuantum). It is the fallback when
	// ShareFloorRateFrac is zero.
	ShareFloor int
	// ShareFloorRateFrac, in (0,1], derives each donor's floor from its
	// arrival-rate share instead of the constant ShareFloor: floor_t =
	// max(1, ShareFloorRateFrac * rateShare_t * blocksPerPartition). A
	// tenant carrying half the traffic then keeps a proportionally larger
	// guaranteed footprint than one trickling requests — the constant floor
	// treated both alike, so a high-rate donor could be drained to the same
	// handful of blocks as an idle one. Zero keeps the constant behaviour.
	ShareFloorRateFrac float64
}

// DefaultControlConfig returns the defaults above (share adaptation off).
func DefaultControlConfig() ControlConfig {
	return ControlConfig{
		Every: 16, Step: 1.25, MinMult: 1.0 / 1024, MaxMult: 1024,
		ShareQuantum: 8, ShareHold: 2, ShareCooldown: 4,
	}
}

// sanitized fills zero-valued fields with defaults.
func (c ControlConfig) sanitized() ControlConfig {
	d := DefaultControlConfig()
	if c.Every == 0 {
		c.Every = d.Every
	}
	if c.Step == 0 {
		c.Step = d.Step
	}
	if c.MinMult == 0 {
		c.MinMult = d.MinMult
	}
	if c.MaxMult == 0 {
		c.MaxMult = d.MaxMult
	}
	if c.ShareQuantum == 0 {
		c.ShareQuantum = d.ShareQuantum
	}
	if c.ShareHold == 0 {
		c.ShareHold = d.ShareHold
	}
	// ShareCooldown is NOT zero-filled: 0 is a legal "no pause" setting,
	// and DefaultControlConfig/the CLI flag already carry the default 4.
	if c.ShareFloor == 0 {
		c.ShareFloor = c.ShareQuantum
	}
	return c
}

// clampMult bounds a threshold multiplier to [MinMult, MaxMult].
func (c ControlConfig) clampMult(m float64) float64 {
	if m < c.MinMult {
		return c.MinMult
	}
	if m > c.MaxMult {
		return c.MaxMult
	}
	return m
}

// Validate checks the configuration (after sanitizing defaults).
func (c ControlConfig) Validate() error {
	c = c.sanitized()
	if c.Every < 1 {
		return errors.New("serve: control period below one batch")
	}
	if c.Step <= 1 {
		return errors.New("serve: control step must exceed 1")
	}
	if c.MinMult <= 0 || c.MinMult > 1 || c.MaxMult < 1 {
		return errors.New("serve: control multiplier clamp must satisfy 0 < MinMult <= 1 <= MaxMult")
	}
	if c.ShareAdapt {
		if c.ShareQuantum < 1 {
			return errors.New("serve: share quantum below one block")
		}
		if c.ShareHold < 1 {
			return errors.New("serve: share hold below one interval")
		}
		if c.ShareCooldown < 0 {
			return errors.New("serve: negative share cooldown would disable the anti-thrash hysteresis")
		}
		if c.ShareFloor < 1 {
			return errors.New("serve: share floor below one block (a zero-budget tenant could never serve a hit)")
		}
	}
	if c.ShareFloorRateFrac < 0 || c.ShareFloorRateFrac > 1 {
		return errors.New("serve: share floor rate fraction outside [0,1]")
	}
	return nil
}

// tenantState is the serving-time state of one tenant: its spec plus the
// controller's accumulated threshold multiplier and the last control-interval
// measurement.
type tenantState struct {
	spec TenantSpec
	// mult is the controller's accumulated multiplicative offset from the
	// bundle's calibrated threshold.
	mult float64
	// threshold is the effective admission cutoff, base*mult.
	threshold float64
	// lastMetric/lastWithin record the most recent completed control
	// interval's QoS measurement (valid once lastValid is set).
	lastMetric float64
	lastWithin bool
	lastValid  bool
	// Hill-climb state: the current violated-step direction (+1 tighten,
	// -1 loosen) and whether the previous control step was also violated
	// (enabling the no-improvement reversal against lastMetric).
	ctrlDir         float64
	ctrlPrevViolate bool
	// satHold counts consecutive violated intervals in which the threshold
	// lever was saturated (multiplier clamped, or a violated step that made
	// no progress) — the elastic-share controller's bid condition.
	satHold int
	// headroomEWMA smooths the tenant's measured QoS headroom across control
	// intervals (alpha headroomAlpha, seeded by the first measurement).
	// Donor selection ranks candidates by this smoothed value instead of the
	// instantaneous one, so a tenant whose metric oscillates around its band
	// edge cannot be drained on every comfortable swing.
	headroomEWMA float64
	headroomSeen bool
}

// headroomAlpha is the smoothing factor for tenantState.headroomEWMA.
const headroomAlpha = 0.25

// controller drives the per-tenant threshold adaptation and, with
// ShareAdapt, the capacity-share reallocation. It runs on the ingest
// goroutine at batch boundaries only, so it may touch partition state
// freely.
type controller struct {
	cfg ControlConfig
	svc *Service
	// cooldown is the number of control intervals the share lever still has
	// to sit out after the last transfer.
	cooldown int
	// floors holds each tenant's per-partition donor floor when
	// ShareFloorRateFrac derives floors from arrival-rate shares; nil under
	// the constant-ShareFloor fallback. Derived once at construction — rates
	// are spec constants — so checkpoints need not carry it.
	floors []int
	// p99 is the p99_ns measurement's merge target, reset and reused every
	// control step so a measurement allocates nothing once its buckets grew.
	p99 stats.Histogram
}

// ctrlObs is one tenant's classification for the current control interval,
// shared between the threshold loop and the share lever.
type ctrlObs struct {
	measured    bool
	v           float64
	violated    bool
	comfortable bool
}

// newController returns nil when no tenant carries a QoS target — untargeted
// runs pay zero control overhead.
func newController(svc *Service, cfg ControlConfig) *controller {
	hasQoS := false
	for _, t := range svc.tenants {
		if t.spec.QoS != nil {
			hasQoS = true
			break
		}
	}
	if !hasQoS {
		return nil
	}
	c := &controller{cfg: cfg.sanitized(), svc: svc}
	if c.cfg.ShareFloorRateFrac > 0 {
		c.floors = rateFloors(svc, c.cfg)
	}
	return c
}

// rateFloors derives each tenant's per-partition donor floor from its
// arrival-rate share: max(1, frac * rateShare * blocksPerPartition).
func rateFloors(svc *Service, cfg ControlConfig) []int {
	pc, err := svc.cfg.partitionCache()
	if err != nil {
		return nil // cfg was validated at New; unreachable in practice
	}
	blocks := float64(pc.NumBlocks())
	var total float64
	for _, t := range svc.tenants {
		total += t.spec.RatePerSec
	}
	floors := make([]int, len(svc.tenants))
	for i, t := range svc.tenants {
		f := 1
		if total > 0 {
			f = int(cfg.ShareFloorRateFrac * (t.spec.RatePerSec / total) * blocks)
			if f < 1 {
				f = 1
			}
		}
		floors[i] = f
	}
	return floors
}

// donorFloor returns tenant ti's per-partition floor: rate-derived when
// ShareFloorRateFrac is set, the constant ShareFloor otherwise.
func (c *controller) donorFloor(ti int) int {
	if c.floors != nil {
		return c.floors[ti]
	}
	return c.cfg.ShareFloor
}

// step runs one control interval: measure each QoS tenant, classify against
// its band, apply the threshold step rule, publish the new thresholds, run
// the share lever, emit one "control" metric record per measured tenant (and
// one "share" record per transfer), and reset the interval accumulators.
func (c *controller) step() {
	s := c.svc
	changed := false
	obs := make([]ctrlObs, len(s.tenants))
	for ti, t := range s.tenants {
		if t.spec.QoS == nil {
			continue
		}
		v, ok := c.measure(ti, *t.spec.QoS)
		if !ok {
			// Idle tenant this interval: no ops means no hit ratio and no
			// sojourn samples, so there is nothing to classify. Hold the
			// multiplier, threshold and saturation state — but break the
			// violated-step chain, otherwise the next violated interval
			// would judge "improvement" against a metric from before the
			// gap and could reverse the search direction spuriously.
			t.ctrlPrevViolate = false
			continue
		}
		violated, comfortable := t.spec.QoS.classify(v)
		obs[ti] = ctrlObs{measured: true, v: v, violated: violated, comfortable: comfortable}
		if h := t.spec.QoS.headroom(v); t.headroomSeen {
			t.headroomEWMA += headroomAlpha * (h - t.headroomEWMA)
		} else {
			t.headroomEWMA, t.headroomSeen = h, true
		}
		switch {
		case violated:
			// Reverse the search direction when the previous violated step
			// failed to move the metric toward the target by at least 2% of
			// it — the deterministic hill-climb that escapes the wrong side
			// of a non-monotone response curve.
			stalled := t.ctrlPrevViolate && !t.spec.QoS.improved(v, t.lastMetric)
			if stalled {
				t.ctrlDir = -t.ctrlDir
			}
			if t.ctrlDir > 0 {
				t.mult *= c.cfg.Step
			} else {
				t.mult /= c.cfg.Step
			}
			t.ctrlPrevViolate = true
			changed = true
			t.mult = c.cfg.clampMult(t.mult)
			// Saturation: the threshold lever has nothing left to give —
			// pinned at a clamp, or stepping without progress.
			if stalled || t.mult <= c.cfg.MinMult || t.mult >= c.cfg.MaxMult {
				t.satHold++
			} else {
				t.satHold = 0
			}
		case comfortable:
			t.mult = c.cfg.clampMult(t.mult * c.cfg.Step)
			t.ctrlDir = -1 // an overshoot into violation loosens first
			t.ctrlPrevViolate = false
			t.satHold = 0
			changed = true
		default:
			t.ctrlPrevViolate = false
			t.satHold = 0
		}
		t.lastMetric = v
		t.lastWithin = !violated
		t.lastValid = true
	}
	if changed {
		s.applyThresholds()
	}
	for ti, t := range s.tenants {
		// Emit only for tenants measured this interval: a record with a
		// stale carried-over value would claim a measurement that never
		// happened.
		if !obs[ti].measured {
			continue
		}
		within, v := t.lastWithin, t.lastMetric
		s.metrics.write(metricRecord{
			Kind:      "control",
			Batch:     s.batches,
			Tenant:    t.spec.Name,
			QoSMetric: t.spec.QoS.Metric,
			QoS:       &v,
			WithinQoS: &within,
			Threshold: t.threshold,
			Mult:      t.mult,
		})
	}
	if c.cfg.ShareAdapt {
		c.adaptShares(obs)
	}
	c.reset()
}

// adaptShares runs the capacity-share lever for one control interval: pick
// the most-violated saturated tenant as the receiver, the comfortable tenant
// with the widest relative headroom (that can spare a quantum above the
// floor) as the donor, and move one ShareQuantum between them. At most one
// transfer happens per interval, followed by ShareCooldown quiet intervals —
// the hysteresis that keeps shares from thrashing.
func (c *controller) adaptShares(obs []ctrlObs) {
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	s := c.svc
	recv, worst := -1, 0.0
	for ti, t := range s.tenants {
		o := obs[ti]
		if !o.measured || !o.violated || t.satHold < c.cfg.ShareHold {
			continue
		}
		// Capacity must be the binding constraint: a tenant that cannot
		// even fill its current budget (its threshold or a stale model is
		// the limiter, not block count) gains nothing from more blocks, and
		// draining a donor for it is pure waste. Require the receiver to be
		// pressing its cap, within one quantum of slack.
		var res, bud int
		for _, p := range s.parts {
			res += p.pol.Resident(ti)
			bud += p.pol.Budget(ti)
		}
		if res+c.cfg.ShareQuantum*len(s.parts) < bud {
			continue
		}
		if d := -t.spec.QoS.headroom(o.v); recv == -1 || d > worst {
			recv, worst = ti, d
		}
	}
	if recv == -1 {
		return
	}
	donor, best := -1, 0.0
	for ti, t := range s.tenants {
		o := obs[ti]
		if ti == recv || !o.measured || !o.comfortable {
			continue
		}
		// Every partition carries the same budgets, so partition 0 speaks
		// for all: the donor must stay at or above its floor after giving.
		if s.parts[0].pol.Budget(ti)-c.cfg.ShareQuantum < c.donorFloor(ti) {
			continue
		}
		// Rank donors by smoothed headroom: eligibility (comfortable this
		// interval) stays instantaneous, but the tie-break across candidates
		// uses the EWMA so oscillating tenants don't win the widest-headroom
		// contest on one good interval.
		if h := t.headroomEWMA; donor == -1 || h > best {
			donor, best = ti, h
		}
	}
	if donor == -1 {
		return
	}
	s.transferShare(donor, recv, c.cfg.ShareQuantum)
	s.tenants[donor].satHold = 0
	s.tenants[recv].satHold = 0
	c.cooldown = c.cfg.ShareCooldown
}

// measure merges tenant ti's control-interval accumulators across partitions
// (in partition order) into one QoS metric value. ok is false when the
// tenant served nothing this interval.
func (c *controller) measure(ti int, q QoSSpec) (v float64, ok bool) {
	s := c.svc
	var ops, hits uint64
	for _, p := range s.parts {
		ops += p.ten[ti].ctrlOps
		hits += p.ten[ti].ctrlHits
	}
	if ops == 0 {
		return 0, false
	}
	switch q.Metric {
	case QoSHitRatio:
		return float64(hits) / float64(ops), true
	case QoSQueueDepth:
		// Mean outstanding-window depth observed at arrival across the
		// tenant's requests (host-routed requests observe depth 0: they
		// never queue on the device).
		var depth uint64
		for _, p := range s.parts {
			depth += p.ten[ti].ctrlQueueSum
		}
		return float64(depth) / float64(ops), true
	case QoSMeanNs:
		var sum, count int64
		for _, p := range s.parts {
			sum += p.ten[ti].ctrlHist.Sum()
			count += p.ten[ti].ctrlHist.Count()
		}
		if count == 0 {
			return 0, false
		}
		return float64(sum) / float64(count), true
	default: // QoSP99Ns
		agg := &c.p99
		agg.Reset()
		for _, p := range s.parts {
			agg.Merge(p.ten[ti].ctrlHist)
		}
		if agg.Count() == 0 {
			return 0, false
		}
		return float64(agg.Percentile(99)), true
	}
}

// reset clears every tenant's control-interval accumulators.
func (c *controller) reset() {
	for _, p := range c.svc.parts {
		for ti := range p.ten {
			ts := &p.ten[ti]
			ts.ctrlOps, ts.ctrlHits, ts.ctrlQueueSum = 0, 0, 0
			if ts.ctrlHist != nil {
				ts.ctrlHist.Reset()
			}
		}
	}
}
