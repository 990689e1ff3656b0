package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// ctrlHarness builds a minimal Service around hand-constructed partitions so
// controller steps can be driven directly: no workload, no training — the
// accounting cells are charged by hand between steps.
type ctrlHarness struct {
	svc *Service
	out bytes.Buffer
	// score is what every partition's policy scores its next miss at.
	score float64
}

func newCtrlHarness(t *testing.T, specs []TenantSpec, budgets []int, cfg ControlConfig) *ctrlHarness {
	t.Helper()
	h := &ctrlHarness{}
	s := &Service{
		cfg:     Config{Tenants: specs, Control: cfg},
		runner:  engine.NewRunner(1),
		tenants: make([]*tenantState, len(specs)),
	}
	s.metrics = newMetricsWriter(&h.out)
	for i, ts := range specs {
		s.tenants[i] = &tenantState{spec: ts, mult: 1, threshold: 1, ctrlDir: -1}
	}
	for pi := 0; pi < 2; pi++ {
		pol := newTenantGMM(policy.GMMCachingEviction, budgets, 0)
		blocks := 0
		for _, b := range budgets {
			blocks += b
		}
		c, err := cache.New(cache.Config{
			SizeBytes:  uint64(blocks) * trace.PageSize,
			BlockBytes: trace.PageSize,
			Ways:       blocks,
		}, pol)
		if err != nil {
			t.Fatal(err)
		}
		pol.bindCache(c)
		pol.bindScorer(func(uint64) float64 { return h.score })
		ten := make([]tenantPartStats, len(specs))
		for i := range ten {
			ten[i] = newTenantPartStats(specs[i])
		}
		s.parts = append(s.parts, &partition{cache: c, pol: pol, ten: ten})
	}
	s.refresher = newRefresher(s, &Bundle{Threshold: 1})
	s.ctrl = newController(s, cfg)
	if s.ctrl == nil {
		t.Fatal("controller did not activate for QoS tenants")
	}
	h.svc = s
	return h
}

// observe charges one interval's worth of traffic to tenant ti's cumulative
// cell (all in partition 0; the controller merges across partitions anyway):
// ops sojourn samples, hits of them HBM-served.
func (h *ctrlHarness) observe(ti int, ops, hits uint64) {
	cell := &h.svc.parts[0].ten[ti]
	for i := uint64(0); i < ops; i++ {
		cell.hist.Observe(1000)
	}
	for i := uint64(0); i < hits; i++ {
		cell.hbmHist.Observe(1000)
	}
}

// fill inserts n distinct pages for tenant ti so share shrinks have resident
// blocks to evict.
func (h *ctrlHarness) fill(t *testing.T, ti, n int) {
	t.Helper()
	for pi, p := range h.svc.parts {
		for i := 0; i < n; i++ {
			h.score = float64(i)
			p.pol.Begin(ti)
			if res := p.cache.Access(uint64(1000*ti+i), false); !res.Admitted {
				t.Fatalf("partition %d: setup fill for tenant %d not admitted", pi, ti)
			}
		}
	}
}

func hitQoS(target float64) *QoSSpec {
	return &QoSSpec{Metric: QoSHitRatio, Target: target, Band: 0.10}
}

// TestControllerZeroOpIntervalHolds is the idle-tenant regression test: a
// tenant with no arrivals in a control window must hold everything — no
// threshold or share step, no NaN metric, no control record — and the
// violated-step chain must break so the next measured interval does not
// judge improvement against a metric from before the gap.
func TestControllerZeroOpIntervalHolds(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{Name: "busy", Share: 0.5, QoS: hitQoS(0.8)},
		{Name: "idle", Share: 0.5, QoS: hitQoS(0.8)},
	}
	h := newCtrlHarness(t, specs, []int{4, 4}, ControlConfig{Every: 1, Step: 2})
	s := h.svc

	// Interval 1: busy violated (hit ratio 0.10), idle serves nothing.
	h.observe(0, 100, 10)
	s.ctrl.step()
	busy, idle := s.tenants[0], s.tenants[1]
	if idle.mult != 1 || idle.lastValid || idle.threshold != 1 {
		t.Fatalf("idle tenant stepped: mult=%v lastValid=%v threshold=%v", idle.mult, idle.lastValid, idle.threshold)
	}
	if !busy.lastValid || busy.mult != 0.5 {
		t.Fatalf("busy tenant did not step: mult=%v", busy.mult)
	}
	if out := h.out.String(); strings.Contains(out, `"tenant":"idle"`) {
		t.Errorf("idle tenant emitted a control record:\n%s", out)
	}

	// Interval 2: busy goes idle too — its chain must break.
	if !busy.ctrlPrevViolate {
		t.Fatal("setup: busy tenant should carry a violated step")
	}
	s.ctrl.step()
	if busy.ctrlPrevViolate {
		t.Error("idle interval did not break the violated-step chain")
	}
	if busy.mult != 0.5 || !busy.lastValid {
		t.Errorf("idle interval moved busy tenant state: mult=%v lastValid=%v", busy.mult, busy.lastValid)
	}

	// Interval 3: busy violated again, with a *worse* metric than interval
	// 1. Without the chain break the controller would see "no improvement"
	// against the stale pre-gap metric and reverse direction (mult up); with
	// it, the step continues loosening (mult down).
	h.observe(0, 100, 5)
	s.ctrl.step()
	if busy.mult != 0.25 {
		t.Errorf("post-gap violated step reversed against a stale metric: mult=%v, want 0.25", busy.mult)
	}
}

// TestControllerShareTransfer drives the elastic-share lever end to end on
// the harness: a persistently violated tenant with a saturated threshold
// lever takes one quantum per partition from the comfortable tenant, the
// donor's overflow blocks are evicted, a "share" record is emitted, and the
// cooldown then keeps a second transfer from following immediately.
func TestControllerShareTransfer(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{Name: "starved", Share: 0.5, QoS: hitQoS(0.8)},
		{Name: "cozy", Share: 0.5, QoS: hitQoS(0.4)},
	}
	cfg := ControlConfig{
		Every: 1, Step: 2, MinMult: 0.5, MaxMult: 2,
		ShareAdapt: true, ShareQuantum: 1, ShareHold: 2, ShareCooldown: 2, ShareFloor: 1,
	}
	h := newCtrlHarness(t, specs, []int{4, 4}, cfg)
	s := h.svc
	h.fill(t, 0, 4) // starved presses its cap: capacity is its binding constraint
	h.fill(t, 1, 4) // cozy holds its full budget in every partition

	violatedComfortable := func() {
		h.observe(0, 100, 10) // starved: 0.10 against a 0.80 floor
		h.observe(1, 100, 90) // cozy: 0.90 against a 0.40 floor
	}

	// Interval 1: starved's first violated step clamps mult at MinMult
	// (saturation 1 of 2). No transfer yet.
	violatedComfortable()
	s.ctrl.step()
	if got := s.parts[0].pol.Budget(0); got != 4 {
		t.Fatalf("transfer before ShareHold intervals: budget=%d", got)
	}
	if s.tenants[0].satHold != 1 {
		t.Fatalf("satHold = %d after first clamped step", s.tenants[0].satHold)
	}

	// Interval 2: saturation reaches ShareHold — one quantum moves in every
	// partition, and the donor's overflow is evicted immediately.
	violatedComfortable()
	s.ctrl.step()
	for pi, p := range s.parts {
		if p.pol.Budget(0) != 5 || p.pol.Budget(1) != 3 {
			t.Fatalf("partition %d budgets after transfer = %d/%d, want 5/3", pi, p.pol.Budget(0), p.pol.Budget(1))
		}
		if p.pol.Resident(1) != 3 {
			t.Fatalf("partition %d donor resident = %d after shrink, want 3", pi, p.pol.Resident(1))
		}
		if err := p.pol.checkShares(); err != nil {
			t.Fatalf("partition %d after transfer: %v", pi, err)
		}
	}
	out := h.out.String()
	if !strings.Contains(out, `"kind":"share"`) ||
		!strings.Contains(out, `"tenant":"starved"`) ||
		!strings.Contains(out, `"donor":"cozy"`) {
		t.Errorf("share record missing or mislabeled:\n%s", out)
	}
	if !strings.Contains(out, `"quantum_blocks":2`) || !strings.Contains(out, `"evicted_blocks":2`) {
		t.Errorf("share record counts wrong:\n%s", out)
	}

	// Intervals 3-4: cooldown — same pressure, no transfer.
	for i := 0; i < 2; i++ {
		violatedComfortable()
		s.ctrl.step()
		if got := s.parts[0].pol.Budget(0); got != 5 {
			t.Fatalf("transfer during cooldown (interval %d): budget=%d", 3+i, got)
		}
	}

	// Interval 5: cooldown over — the next quantum moves.
	violatedComfortable()
	s.ctrl.step()
	if got := s.parts[0].pol.Budget(0); got != 6 {
		t.Fatalf("post-cooldown transfer missing: budget=%d", got)
	}
}

// TestControllerShareRequiresCapPressure: a violated, saturated tenant that
// cannot even fill its current budget is not capacity-limited — its
// threshold or model is the bottleneck — so the share lever must not drain a
// donor for it.
func TestControllerShareRequiresCapPressure(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{Name: "starved", Share: 0.5, QoS: hitQoS(0.8)},
		{Name: "cozy", Share: 0.5, QoS: hitQoS(0.4)},
	}
	cfg := ControlConfig{
		Every: 1, Step: 2, MinMult: 0.5, MaxMult: 2,
		ShareAdapt: true, ShareQuantum: 1, ShareHold: 1, ShareCooldown: 1, ShareFloor: 1,
	}
	h := newCtrlHarness(t, specs, []int{4, 4}, cfg)
	s := h.svc
	h.fill(t, 1, 4) // donor full; receiver holds nothing
	for i := 0; i < 3; i++ {
		h.observe(0, 100, 10)
		h.observe(1, 100, 90)
		s.ctrl.step()
	}
	if b := s.parts[0].pol; b.Budget(0) != 4 || b.Budget(1) != 4 {
		t.Fatalf("empty receiver was granted capacity: budgets %d/%d", b.Budget(0), b.Budget(1))
	}
	if strings.Contains(h.out.String(), `"kind":"share"`) {
		t.Error("share record emitted for a receiver with no cap pressure")
	}
}

// TestControllerDonorUsesEWMAHeadroom is the oscillating-donor regression
// test: donor selection ranks candidates by the EWMA of their measured
// headroom, not the instantaneous value, so a tenant whose metric swings
// around its band edge cannot win the widest-headroom contest on one lucky
// interval. "oscil" spends its history barely comfortable, then spikes to
// the widest instantaneous headroom exactly when the transfer fires;
// "steady" has been comfortably wide the whole time. Instantaneous selection
// would drain oscil — the EWMA must pick steady.
func TestControllerDonorUsesEWMAHeadroom(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{Name: "starved", Share: 0.4, QoS: hitQoS(0.8)},
		{Name: "oscil", Share: 0.3, QoS: hitQoS(0.4)},
		{Name: "steady", Share: 0.3, QoS: hitQoS(0.4)},
	}
	cfg := ControlConfig{
		Every: 1, Step: 2, MinMult: 0.5, MaxMult: 2,
		ShareAdapt: true, ShareQuantum: 1, ShareHold: 1, ShareCooldown: 4, ShareFloor: 1,
	}
	h := newCtrlHarness(t, specs, []int{4, 4, 4}, cfg)
	s := h.svc
	h.fill(t, 0, 4) // starved presses its cap
	h.fill(t, 1, 4)
	h.fill(t, 2, 4)

	// History: starved idle (no receiver, so no transfer), oscil barely
	// comfortable at 0.45 (headroom 0.125), steady wide at 0.90 (headroom
	// 1.25). Four intervals pin both EWMAs near those values.
	for i := 0; i < 4; i++ {
		h.observe(1, 100, 45)
		h.observe(2, 100, 90)
		s.ctrl.step()
	}
	if ew := s.tenants[1].headroomEWMA; ew > 0.2 {
		t.Fatalf("setup: oscil's EWMA %v did not settle low", ew)
	}

	// Decision interval: starved violated and instantly saturated (first
	// step clamps mult at MinMult), oscil spikes to 0.95 — instantaneous
	// headroom 1.375, the widest in the pool — while steady holds 0.90
	// (headroom 1.25). The EWMA still ranks steady far above oscil.
	h.observe(0, 100, 10)
	h.observe(1, 100, 95)
	h.observe(2, 100, 90)
	s.ctrl.step()

	out := h.out.String()
	if !strings.Contains(out, `"kind":"share"`) {
		t.Fatalf("no share transfer fired:\n%s", out)
	}
	if !strings.Contains(out, `"donor":"steady"`) || strings.Contains(out, `"donor":"oscil"`) {
		t.Errorf("donor selection followed the instantaneous spike instead of the EWMA:\n%s", out)
	}
	if b := s.parts[0].pol; b.Budget(1) != 4 || b.Budget(2) != 3 {
		t.Errorf("budgets after transfer = %d/%d/%d, want 5/4/3", b.Budget(0), b.Budget(1), b.Budget(2))
	}
}

// TestControlConfigShareValidation pins the share-lever config contract.
func TestControlConfigShareValidation(t *testing.T) {
	t.Parallel()
	base := ControlConfig{ShareAdapt: true}
	if err := base.Validate(); err != nil {
		t.Fatalf("defaulted share config rejected: %v", err)
	}
	bad := map[string]ControlConfig{
		"negative quantum":  {ShareAdapt: true, ShareQuantum: -1},
		"negative hold":     {ShareAdapt: true, ShareHold: -1},
		"negative cooldown": {ShareAdapt: true, ShareCooldown: -3},
		"negative floor":    {ShareAdapt: true, ShareFloor: -2},
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestControllerShareFloorAndEligibility: a donor at the floor never gives,
// a tenant that is merely holding (inside its band) neither gives nor takes,
// and tenants without QoS targets are never touched.
func TestControllerShareFloorAndEligibility(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{Name: "starved", Share: 0.25, QoS: hitQoS(0.8)},
		{Name: "floor", Share: 0.25, QoS: hitQoS(0.4)},
		{Name: "static", Share: 0.5},
	}
	cfg := ControlConfig{
		Every: 1, Step: 2, MinMult: 0.5, MaxMult: 2,
		ShareAdapt: true, ShareQuantum: 2, ShareHold: 1, ShareCooldown: 1, ShareFloor: 3,
	}
	h := newCtrlHarness(t, specs, []int{2, 4, 8}, cfg)
	s := h.svc

	// floor is comfortable but holds 4 blocks: giving 2 would leave 2 < 3.
	h.observe(0, 100, 10)
	h.observe(1, 100, 90)
	s.ctrl.step()
	if b := s.parts[0].pol; b.Budget(0) != 2 || b.Budget(1) != 4 || b.Budget(2) != 8 {
		t.Fatalf("floor-protected donor gave anyway: budgets %d/%d/%d", b.Budget(0), b.Budget(1), b.Budget(2))
	}
	if h.out.Len() > 0 && strings.Contains(h.out.String(), `"kind":"share"`) {
		t.Error("share record emitted without a transfer")
	}

	// A holding tenant (inside the band) is not a donor either — and the
	// QoS-less tenant's share must never move, no matter the pressure.
	h.observe(0, 100, 10)
	h.observe(1, 100, 42) // 0.42 against target 0.40, inside the 10% band
	s.ctrl.step()
	if b := s.parts[0].pol; b.Budget(0) != 2 || b.Budget(2) != 8 {
		t.Fatalf("holding/static tenants were raided: budgets %d/%d/%d", b.Budget(0), b.Budget(1), b.Budget(2))
	}
}

// TestControllerMeasureP99 covers the p99_ns QoS branch: one control interval
// whose first partition sees 70,000 fast samples before a slow tail must
// report the tail, merged across partitions — a histogram keeping only its
// first 65,536 samples reported the fast prefix — and a measurement must not
// allocate. A reset then starts an empty interval, however much the
// cumulative cells hold. Not parallel: AllocsPerRun counts every goroutine's
// mallocs.
func TestControllerMeasureP99(t *testing.T) {
	q := QoSSpec{Metric: QoSP99Ns, Target: 50_000, Band: 0.10}
	h := newCtrlHarness(t, []TenantSpec{{Name: "lat", Share: 1, QoS: &q}}, []int{4}, ControlConfig{Every: 1, Step: 2})
	s := h.svc
	// fill records n samples the way serveOne does: in the cumulative cell
	// and in the p99_ns tenant's interval histogram.
	fill := func(pi, n int, ns int64) {
		cell := &s.parts[pi].ten[0]
		for i := 0; i < n; i++ {
			cell.hist.Observe(ns)
			cell.intervalHist.Observe(ns)
		}
	}
	fill(0, 70_000, 1_000)
	fill(0, 2_000, 2_000_000)
	fill(1, 10_000, 1_000) // 82,000 samples: the p99 rank 81,180 is in the tail
	v, ok := s.ctrl.measure(0, q)
	if !ok || math.Abs(v-2e6) > 2e6/128 {
		t.Fatalf("measured p99 = %v (ok=%v), want 2ms within 1/128", v, ok)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.ctrl.measure(0, q) }); allocs != 0 {
		t.Errorf("p99_ns measurement allocates %v per control step, want 0", allocs)
	}
	s.ctrl.reset()
	if v, ok := s.ctrl.measure(0, q); ok {
		t.Fatalf("interval after a reset measured %v with nothing served", v)
	}
	fill(1, 100, 3_000)
	if v, ok := s.ctrl.measure(0, q); !ok || math.Abs(v-3e3) > 3e3/128 {
		t.Fatalf("interval after a reset measured p99 = %v (ok=%v), want 3us within 1/128", v, ok)
	}
}
