package serve

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TenantSpec describes one named workload stream of a multi-tenant serving
// run: its traffic shape, its slice of the device HBM cache, and (optionally)
// the QoS target the adaptive controller holds it to. The JSON form is the
// cmd/icgmm-serve -tenants wire format.
type TenantSpec struct {
	// Name labels the tenant in metrics and reports. Required, unique.
	Name string `json:"name"`
	// Workload names a registry generator (see workload.ByName); Custom,
	// when set, takes precedence and composes a bespoke working set.
	Workload string                 `json:"workload,omitempty"`
	Custom   *workload.CustomConfig `json:"custom,omitempty"`
	// Seed drives the tenant's private request stream.
	Seed int64 `json:"seed"`
	// RatePerSec is the tenant's open-loop arrival rate (must be > 0: the
	// mux merges streams by arrival time).
	RatePerSec float64 `json:"rate"`
	// BurstAmp/BurstPeriod sinusoidally modulate the rate (see
	// workload.OpenLoopConfig).
	BurstAmp    float64 `json:"burst,omitempty"`
	BurstPeriod int     `json:"burst_period,omitempty"`
	// OffsetPages relocates the tenant's working set so tenants occupy
	// disjoint address regions.
	OffsetPages uint64 `json:"offset_pages,omitempty"`
	// ShiftAfter/ShiftOffsetPages give the tenant a working-set drift (see
	// workload.OpenLoopConfig), exercising refresh under multi-tenancy.
	ShiftAfter       uint64 `json:"shift_after,omitempty"`
	ShiftOffsetPages uint64 `json:"shift_offset_pages,omitempty"`
	// ShiftCustom, when set, swaps the tenant's stream to this working set
	// at the shift point (workload.OpenLoopConfig.ShiftTo), so a drift can
	// also grow or reshape the working set — the capacity-starvation
	// scenario the elastic-share controller reallocates HBM for. Requires
	// ShiftAfter > 0.
	ShiftCustom *workload.CustomConfig `json:"shift_custom,omitempty"`
	// Share is the tenant's fraction of every partition's HBM cache blocks,
	// enforced at admission: once the tenant holds floor(Share*blocks)
	// blocks of a partition it can only replace its own blocks, never grow.
	// Shares must each be in (0, 1] and sum to at most 1.
	Share float64 `json:"share"`
	// QoS, when set, puts the tenant under the adaptive threshold
	// controller.
	QoS *QoSSpec `json:"qos,omitempty"`
}

// QoSSpec is one tenant's service-level objective. Metric selects what the
// controller measures over each control interval:
//
//   - "hit_ratio": Target is a floor on the tenant's interval hit ratio.
//   - "p99_ns":    Target is a ceiling on the tenant's interval p99 sojourn
//     time in nanoseconds.
//   - "mean_ns":   Target is a ceiling on the interval mean sojourn time.
//   - "queue_depth": Target is a ceiling on the mean outstanding-window
//     depth the tenant's requests observe at arrival — the congestion
//     signal. Only meaningful (and only accepted) under "timing":
//     "dataflow", where an outstanding window exists.
//
// Band is the relative hold region around Target (default 0.10): inside it
// the controller leaves the tenant's admission threshold alone, beyond it on
// the violating side the threshold loosens (admit more), and beyond it on the
// comfortable side the threshold tightens (admit less, freeing device
// bandwidth for tenants that need it).
type QoSSpec struct {
	Metric string  `json:"metric"`
	Target float64 `json:"target"`
	Band   float64 `json:"band,omitempty"`
}

// QoS metric names.
const (
	QoSHitRatio   = "hit_ratio"
	QoSP99Ns      = "p99_ns"
	QoSMeanNs     = "mean_ns"
	QoSQueueDepth = "queue_depth"
)

// Validate checks the objective.
func (q QoSSpec) Validate() error {
	switch q.Metric {
	case QoSHitRatio:
		if q.Target <= 0 || q.Target > 1 {
			return fmt.Errorf("serve: hit_ratio QoS target %v outside (0,1]", q.Target)
		}
	case QoSP99Ns, QoSMeanNs:
		if q.Target <= 0 {
			return fmt.Errorf("serve: latency QoS target %v not positive", q.Target)
		}
	case QoSQueueDepth:
		if q.Target <= 0 {
			return fmt.Errorf("serve: queue_depth QoS target %v not positive", q.Target)
		}
	default:
		return fmt.Errorf("serve: unknown QoS metric %q (valid: hit_ratio|p99_ns|mean_ns|queue_depth)", q.Metric)
	}
	if q.Band < 0 || q.Band >= 1 {
		return fmt.Errorf("serve: QoS band %v outside [0,1)", q.Band)
	}
	return nil
}

// band returns the hold-region width with the default applied.
func (q QoSSpec) band() float64 {
	if q.Band > 0 {
		return q.Band
	}
	return 0.10
}

// higherIsBetter reports the metric's direction: hit ratio is a floor,
// latency metrics are ceilings.
func (q QoSSpec) higherIsBetter() bool { return q.Metric == QoSHitRatio }

// classify places a measured value relative to the target band: violated
// (beyond the band on the bad side), comfortable (beyond it on the good
// side), or holding.
func (q QoSSpec) classify(v float64) (violated, comfortable bool) {
	b := q.band()
	if q.higherIsBetter() {
		return v < q.Target*(1-b), v > q.Target*(1+b)
	}
	return v > q.Target*(1+b), v < q.Target*(1-b)
}

// headroom returns how far v sits on the good side of the target, as a
// signed fraction of the target: positive means better than the target,
// negative means violating it. The share lever ranks donors by headroom and
// receivers by its negation, so both comparisons are target-relative and
// commensurable across hit-ratio and latency objectives.
func (q QoSSpec) headroom(v float64) float64 {
	if q.higherIsBetter() {
		return (v - q.Target) / q.Target
	}
	return (q.Target - v) / q.Target
}

// improved reports whether v moved toward the target relative to prev by
// more than 2% of the target — the controller's progress test for keeping
// its hill-climb direction.
func (q QoSSpec) improved(v, prev float64) bool {
	eps := 0.02 * q.Target
	if q.higherIsBetter() {
		return v > prev+eps
	}
	return v < prev-eps
}

// ValidateTenants checks a tenant list: unique non-empty names, resolvable
// workloads, positive rates, and capacity shares that never over-commit the
// cache.
func ValidateTenants(specs []TenantSpec) error {
	if len(specs) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(specs))
	var shareSum float64
	for i, ts := range specs {
		if ts.Name == "" {
			return fmt.Errorf("serve: tenant %d has no name", i)
		}
		if seen[ts.Name] {
			return fmt.Errorf("serve: duplicate tenant name %q", ts.Name)
		}
		seen[ts.Name] = true
		if _, err := ts.generator(); err != nil {
			return fmt.Errorf("serve: tenant %q: %w", ts.Name, err)
		}
		if ts.RatePerSec <= 0 {
			return fmt.Errorf("serve: tenant %q has non-positive rate", ts.Name)
		}
		if ts.BurstAmp < 0 || ts.BurstAmp >= 1 {
			return fmt.Errorf("serve: tenant %q burst amplitude outside [0,1)", ts.Name)
		}
		if ts.Share <= 0 || ts.Share > 1 {
			return fmt.Errorf("serve: tenant %q share %v outside (0,1]", ts.Name, ts.Share)
		}
		if ts.ShiftCustom != nil {
			if ts.ShiftAfter == 0 {
				return fmt.Errorf("serve: tenant %q has shift_custom without shift_after", ts.Name)
			}
			if _, err := workload.NewCustom(*ts.ShiftCustom); err != nil {
				return fmt.Errorf("serve: tenant %q shift_custom: %w", ts.Name, err)
			}
		}
		shareSum += ts.Share
		if ts.QoS != nil {
			if err := ts.QoS.Validate(); err != nil {
				return fmt.Errorf("serve: tenant %q: %w", ts.Name, err)
			}
		}
	}
	if shareSum > 1+1e-9 {
		return fmt.Errorf("serve: tenant shares sum to %.4f > 1 (would over-commit the HBM cache)", shareSum)
	}
	return nil
}

// generator resolves the tenant's workload generator.
func (ts TenantSpec) generator() (workload.Generator, error) {
	if ts.Custom != nil {
		return workload.NewCustom(*ts.Custom)
	}
	if ts.Workload == "" {
		return nil, errors.New("no workload or custom spec")
	}
	return workload.ByName(ts.Workload)
}

// openLoop builds the tenant's private open-loop stream.
func (ts TenantSpec) openLoop() (*workload.OpenLoop, error) {
	gen, err := ts.generator()
	if err != nil {
		return nil, err
	}
	var shiftTo workload.Generator
	if ts.ShiftCustom != nil {
		if shiftTo, err = workload.NewCustom(*ts.ShiftCustom); err != nil {
			return nil, fmt.Errorf("shift_custom: %w", err)
		}
	}
	return workload.NewOpenLoop(gen, workload.OpenLoopConfig{
		RatePerSec:       ts.RatePerSec,
		BurstAmp:         ts.BurstAmp,
		BurstPeriod:      ts.BurstPeriod,
		Seed:             ts.Seed,
		ShiftAfter:       ts.ShiftAfter,
		ShiftOffsetPages: ts.ShiftOffsetPages,
		ShiftTo:          shiftTo,
	})
}

// NewTenantMux builds the deterministic multi-tenant request mux for the
// specs: one open-loop stream per tenant, merged by arrival time. Stream
// index i corresponds to specs[i], and Request.Tenant carries that index
// through the pipeline. Build one mux for warm-up and a fresh one for
// serving: a mux is consumed as it is read.
func NewTenantMux(specs []TenantSpec) (*workload.Mux, error) {
	if err := ValidateTenants(specs); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("serve: no tenants")
	}
	streams := make([]workload.MuxStream, len(specs))
	for i, ts := range specs {
		ol, err := ts.openLoop()
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", ts.Name, err)
		}
		streams[i] = workload.MuxStream{Stream: ol, OffsetPages: ts.OffsetPages}
	}
	return workload.NewMux(streams)
}

// closedLoop builds the tenant's private closed-loop stream: users
// simulated clients targeting the tenant's configured rate at zero latency.
// Burst modulation does not apply — a closed loop's arrival clock is its
// users' think/completion cycle, not a modulated Poisson-like schedule — so
// BurstAmp/BurstPeriod are deliberately not forwarded.
func (ts TenantSpec) closedLoop(users int, alpha float64) (*workload.ClosedLoop, error) {
	gen, err := ts.generator()
	if err != nil {
		return nil, err
	}
	var shiftTo workload.Generator
	if ts.ShiftCustom != nil {
		if shiftTo, err = workload.NewCustom(*ts.ShiftCustom); err != nil {
			return nil, fmt.Errorf("shift_custom: %w", err)
		}
	}
	return workload.NewClosedLoop(gen, workload.OpenLoopConfig{
		Seed:             ts.Seed,
		ShiftAfter:       ts.ShiftAfter,
		ShiftOffsetPages: ts.ShiftOffsetPages,
		ShiftTo:          shiftTo,
	}, workload.ClosedLoopConfig{
		Users:      users,
		RatePerSec: ts.RatePerSec,
		Alpha:      alpha,
	})
}

// NewClientMux builds the closed-loop variant of NewTenantMux: every tenant
// becomes a population of users simulated clients whose next arrival waits
// on the completion of the previous request (as fed back through
// Mux.ObserveLatency) plus a think time targeting the tenant's configured
// rate. Stream indices and page offsets match NewTenantMux exactly.
func NewClientMux(specs []TenantSpec, users int, alpha float64) (*workload.Mux, error) {
	if err := ValidateTenants(specs); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("serve: no tenants")
	}
	streams := make([]workload.MuxStream, len(specs))
	for i, ts := range specs {
		cl, err := ts.closedLoop(users, alpha)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", ts.Name, err)
		}
		streams[i] = workload.MuxStream{Stream: cl, OffsetPages: ts.OffsetPages}
	}
	return workload.NewMux(streams)
}

// ValidateWarmup checks that a warm-up trace of warmupLen requests lets the
// initial GMM see every Algorithm 1 timestamp — globally and for every
// tenant. After trimming (TransformConfig.WarmupFrac/TailFrac), the retained
// trace must cover one full access shot (LenWindow*LenAccessShot requests);
// otherwise serving reaches timestamp ranges the model never trained on,
// scores them as out-of-distribution and bypasses structurally hot pages.
// Per tenant, the tenant's arrival-rate share of one access shot must still
// average at least one sample per timestamp value (share*LenWindow >= 1):
// below that the tenant's (page, time) plane has unseen stripes even when
// the global trace is long enough. A nil spec list means a single tenant
// owning the whole stream.
func ValidateWarmup(warmupLen int, tcfg trace.TransformConfig, specs []TenantSpec) error {
	tcfg = tcfg.Sanitized()
	lo := int(float64(warmupLen) * tcfg.WarmupFrac)
	hi := warmupLen - int(float64(warmupLen)*tcfg.TailFrac)
	trimmed := hi - lo
	span := tcfg.LenWindow * tcfg.LenAccessShot
	if trimmed < span {
		return fmt.Errorf(
			"serve: trimmed warm-up (%d of %d requests) does not cover one access shot (len_window %d * len_access_shot %d = %d requests); the model would see unseen timestamp ranges — raise -warmup or lower -shot",
			trimmed, warmupLen, tcfg.LenWindow, tcfg.LenAccessShot, span)
	}
	if len(specs) == 0 {
		return nil
	}
	var total float64
	for _, ts := range specs {
		total += ts.RatePerSec
	}
	if total <= 0 {
		return errors.New("serve: tenant rates sum to zero")
	}
	for _, ts := range specs {
		share := ts.RatePerSec / total
		perShot := share * float64(span)
		if perShot < float64(tcfg.LenAccessShot) {
			return fmt.Errorf(
				"serve: tenant %q contributes ~%.0f warm-up samples per access shot, fewer than one per timestamp value (len_access_shot %d); its pages would be scored at timestamps the model never saw for them — raise its rate share above 1/len_window (%.4f) or shrink len_window",
				ts.Name, perShot, tcfg.LenAccessShot, 1/float64(tcfg.LenWindow))
		}
	}
	return nil
}

// tenantBudgets derives each tenant's per-partition block budget from its
// share: floor(share*blocks), so the sum never exceeds the partition.
func tenantBudgets(specs []TenantSpec, pc cache.Config) ([]int, error) {
	blocks := int(pc.NumBlocks())
	if len(specs) == 0 {
		return []int{blocks}, nil
	}
	budgets := make([]int, len(specs))
	for i, ts := range specs {
		budgets[i] = int(ts.Share * float64(blocks))
		if budgets[i] < 1 {
			return nil, fmt.Errorf(
				"serve: tenant %q share %.3f yields zero blocks of the %d-block partition cache; grow the cache or the share",
				ts.Name, ts.Share, blocks)
		}
	}
	return budgets, nil
}

// tenantGMM is the partition policy engine of the tenant layer: GMM-scored
// admission and eviction (Admit scores each miss once through the bound
// scorer; hits are never scored) with per-tenant admission thresholds and
// per-tenant capacity budgets. Budgets are hard ceilings: an admission never
// grows a tenant past its budget, so shares can never over-commit the
// partition. A tenant at its budget admits only by keeping its footprint
// exactly flat, trading one of its own blocks for the new page (see Admit's
// swap-up rule), so a tenant can never be permanently locked out of a hot set
// its budget happens to have no blocks in. Budgets themselves move at batch
// boundaries via shiftBudget, the elastic-share controller's lever.
type tenantGMM struct {
	mode  policy.GMMMode
	nSets int
	ways  int
	cache *cache.Cache // bound after construction; used for block release

	scores  [][]float64 // per-way GMM score, the smart-eviction key
	lastUse [][]uint64  // per-way LRU stamp, the caching-only fallback key
	owner   [][]int16   // per-way owning tenant; -1 while invalid

	thresholds []float64 // per-tenant admission cutoff
	budget     []int     // per-tenant block budget
	resident   []int     // per-tenant valid block count

	// score returns the GMM admission score of the staged access's page (see
	// bindScorer); curScore holds it from Admit through OnInsert.
	score          func(page uint64) float64
	curTenant      int
	curScore       float64
	restrictVictim bool // the pending Victim call must stay within curTenant
}

// newTenantGMM builds the policy for nTenants tenants with the given block
// budgets and a uniform initial threshold. The budget slice is copied:
// budgets are per-partition state (the share controller resizes them
// independently-but-identically across partitions), so policies must never
// alias a caller's slice.
func newTenantGMM(mode policy.GMMMode, budgets []int, threshold float64) *tenantGMM {
	n := len(budgets)
	p := &tenantGMM{
		mode:       mode,
		thresholds: make([]float64, n),
		budget:     append([]int(nil), budgets...),
		resident:   make([]int, n),
	}
	for i := range p.thresholds {
		p.thresholds[i] = threshold
	}
	return p
}

// bindCache hands the policy the cache it is attached to. The tenant layer
// needs the back-reference for policy-initiated evictions (cross-set release,
// share-shrink overflow); it is set once, after cache.New, before any
// traffic.
func (p *tenantGMM) bindCache(c *cache.Cache) { p.cache = c }

// bindScorer installs the hook Admit scores a miss through. The partition
// binds it once, right after bindCache, and stages the access's Algorithm 1
// timestamp itself, so the policy never runs its own (shard-local, hence
// wrong) clock.
func (p *tenantGMM) bindScorer(score func(page uint64) float64) { p.score = score }

// Begin stages the tenant of the next access. The serving pipeline calls it
// immediately before Cache.Access; the access is scored only if it misses.
func (p *tenantGMM) Begin(tenant int) { p.curTenant = tenant }

// SetThresholds replaces every tenant's admission cutoff. Called only at
// batch boundaries (refresh install, controller step) when no shard is
// draining the partition.
func (p *tenantGMM) SetThresholds(ths []float64) { copy(p.thresholds, ths) }

// Resident returns tenant t's valid block count in this partition.
func (p *tenantGMM) Resident(t int) int { return p.resident[t] }

// Name implements cache.Policy.
func (p *tenantGMM) Name() string { return "tenant-" + p.mode.String() }

// Attach implements cache.Policy.
func (p *tenantGMM) Attach(numSets, ways int) {
	p.nSets, p.ways = numSets, ways
	p.scores = make([][]float64, numSets)
	p.lastUse = make([][]uint64, numSets)
	p.owner = make([][]int16, numSets)
	for i := 0; i < numSets; i++ {
		p.scores[i] = make([]float64, ways)
		p.lastUse[i] = make([]uint64, ways)
		p.owner[i] = make([]int16, ways)
		for w := range p.owner[i] {
			p.owner[i][w] = -1
		}
	}
}

// OnAccess implements cache.Policy. Timestamps derive from the global
// arrival index upstream, so there is no per-access clock to advance here.
func (p *tenantGMM) OnAccess(cache.Request) {}

// OnHit implements cache.Policy.
func (p *tenantGMM) OnHit(setIdx, way int, req cache.Request) {
	p.lastUse[setIdx][way] = req.Seq
}

// Admit implements cache.Policy: it scores the missed page (the access's one
// GMM inference), the score must clear the tenant's threshold, and the
// tenant's capacity budget must allow the insert. At budget the footprint
// must stay exactly flat, and admission trades against one of the tenant's
// own blocks under a swap-up rule: the page must beat the block it displaces
// — its own in-set minimum when the full target set holds its blocks, its
// globally-coldest block otherwise (released first, cross-set accounting).
// Hot pages in sets the tenant has no blocks in are therefore admittable
// instead of permanently bypassed. Only a tenant with no resident blocks at
// all (a zero-budget corner) still bypasses at budget.
func (p *tenantGMM) Admit(req cache.Request) bool {
	t := p.curTenant
	p.restrictVictim = false
	p.curScore = p.score(req.Page)
	if p.mode != policy.GMMEvictionOnly && p.curScore < p.thresholds[t] {
		return false
	}
	if p.resident[t] < p.budget[t] {
		return true
	}
	si := int(req.Page % uint64(p.nSets))
	full, ownMin, ownMinWay := true, 0.0, -1
	for w := 0; w < p.ways; w++ {
		switch {
		case p.owner[si][w] == -1:
			full = false
		case int(p.owner[si][w]) == t:
			if ownMinWay == -1 || p.scores[si][w] < ownMin {
				ownMin, ownMinWay = p.scores[si][w], w
			}
		}
	}
	// Swap-up rule: the bar for an at-budget admission is the block it
	// displaces (or releases) — in scored modes the page's score must beat
	// that block's eviction key, or any barely-above-threshold one-hit page
	// would churn the resident working set. The bar therefore legitimately
	// depends on WHERE the page lands: entering a full set where the tenant
	// holds blocks costs its own in-set minimum; entering anywhere else
	// costs its globally-coldest block. (A single global bar was tried and
	// reverted: it makes displacing *other* tenants' set-minimum blocks the
	// common case, and the resulting cross-tenant eviction cascade collapses
	// everyone's hit ratio.) In caching-only mode recency is the key and a
	// fresh insert is always the most recent.
	if full && ownMinWay >= 0 {
		// In-set self-replacement: replace the tenant's own lowest-valued
		// block here. The restricted Victim reports the eviction through
		// AccessResult, so its write-back is charged to the device path.
		if p.mode != policy.GMMCachingOnly && p.curScore <= ownMin {
			return false
		}
		p.restrictVictim = true
		return true
	}
	// Cross-set accounting: release the tenant's coldest block — wherever
	// it lives — then let the insert land in a free way (or displace the
	// target set's lowest-scored block, shrinking that tenant below its
	// ceiling; ceilings are caps, not guarantees). The release keeps this
	// tenant's footprint flat, so the no-overcommit invariant holds through
	// the whole access.
	if p.cache == nil {
		return false // unbound policy (tests): fall back to deny-at-Admit
	}
	rs, rw := p.coldestOwned(t)
	if rs < 0 {
		return false // no resident block to trade (zero-budget corner)
	}
	if p.mode != policy.GMMCachingOnly && p.curScore <= p.scores[rs][rw] {
		return false
	}
	p.cache.EvictAt(rs, rw)
	return true
}

// coldestOwned returns the (set, way) of tenant t's lowest-valued resident
// block — GMM score in scored modes, LRU stamp in caching-only mode — or
// (-1, -1) when the tenant holds nothing. Ties break to the lowest set, then
// the lowest way, keeping the scan deterministic. The scan is O(sets*ways)
// over the partition (~1k blocks at the paper's geometry) and runs only on
// at-budget misses that cleared the threshold without an in-set
// self-replacement — an accepted simulator cost; a per-tenant heap would
// remove it if admission ever dominates profiles.
func (p *tenantGMM) coldestOwned(t int) (int, int) {
	bs, bw := -1, -1
	for si := range p.owner {
		for w, o := range p.owner[si] {
			if int(o) != t {
				continue
			}
			switch {
			case bs == -1:
				bs, bw = si, w
			case p.mode == policy.GMMCachingOnly:
				if p.lastUse[si][w] < p.lastUse[bs][bw] {
					bs, bw = si, w
				}
			default:
				if p.scores[si][w] < p.scores[bs][bw] {
					bs, bw = si, w
				}
			}
		}
	}
	return bs, bw
}

// shiftBudget moves q blocks of capacity from tenant donor to tenant recv and
// immediately evicts the donor's overflow (coldest blocks first), so the
// no-overcommit invariant is already true again when the call returns. The
// elastic-share controller calls it at batch boundaries only — never while a
// shard is draining the partition. It returns how many blocks were evicted.
func (p *tenantGMM) shiftBudget(donor, recv, q int) int {
	p.budget[donor] -= q
	p.budget[recv] += q
	return p.evictOverflow(donor)
}

// evictOverflow evicts tenant t's coldest blocks until it fits its budget,
// returning the number of evictions.
func (p *tenantGMM) evictOverflow(t int) int {
	if p.cache == nil {
		return 0 // unbound policy (tests): nothing to evict from
	}
	n := 0
	for p.resident[t] > p.budget[t] {
		si, w := p.coldestOwned(t)
		if si < 0 {
			break // residency counter drifted; checkShares will report it
		}
		p.cache.EvictAt(si, w)
		n++
	}
	return n
}

// Budget returns tenant t's current block budget in this partition.
func (p *tenantGMM) Budget(t int) int { return p.budget[t] }

// Victim implements cache.Policy: the lowest-scored way (or least recently
// used in caching-only mode), restricted to the current tenant's own blocks
// when its budget forced a self-replacement.
func (p *tenantGMM) Victim(setIdx int, blocks []cache.BlockView) int {
	restrict := p.restrictVictim
	p.restrictVictim = false
	best := -1
	for w := range blocks {
		if restrict && int(p.owner[setIdx][w]) != p.curTenant {
			continue
		}
		if best == -1 {
			best = w
			continue
		}
		if p.mode == policy.GMMCachingOnly {
			if p.lastUse[setIdx][w] < p.lastUse[setIdx][best] {
				best = w
			}
		} else if p.scores[setIdx][w] < p.scores[setIdx][best] {
			best = w
		}
	}
	// best == -1 means the restricted scan found none of the tenant's blocks
	// — Admit and the owner map disagree. Veto the insertion (the cache
	// counts a bypass) rather than evict a foreign block and grow the tenant
	// past its budget.
	return best
}

// OnEvict implements cache.Policy.
func (p *tenantGMM) OnEvict(setIdx, way int, _ uint64) {
	if o := p.owner[setIdx][way]; o >= 0 {
		p.resident[o]--
		p.owner[setIdx][way] = -1
	}
}

// OnInsert implements cache.Policy: the score Admit computed is stored
// alongside the tag and the block is charged to the inserting tenant.
func (p *tenantGMM) OnInsert(setIdx, way int, req cache.Request) {
	p.scores[setIdx][way] = p.curScore
	p.lastUse[setIdx][way] = req.Seq
	p.owner[setIdx][way] = int16(p.curTenant)
	p.resident[p.curTenant]++
}

// setScore replaces the stored eviction score of one way. Used by the
// refresh path to rebase resident blocks onto a new model's density scale.
func (p *tenantGMM) setScore(setIdx, way int, score float64) {
	p.scores[setIdx][way] = score
}

// checkShares verifies the policy's capacity invariants against the ground
// truth owner map: per-tenant residency counters match, no tenant exceeds
// its budget, and the total never exceeds the partition. The property tests
// call it after random traffic; it is not on the hot path.
func (p *tenantGMM) checkShares() error {
	counts := make([]int, len(p.budget))
	total := 0
	for si := range p.owner {
		for _, o := range p.owner[si] {
			if o >= 0 {
				counts[o]++
				total++
			}
		}
	}
	for t, c := range counts {
		if c != p.resident[t] {
			return fmt.Errorf("tenant %d residency counter %d != owner-map count %d", t, p.resident[t], c)
		}
		if c > p.budget[t] {
			return fmt.Errorf("tenant %d holds %d blocks over budget %d", t, c, p.budget[t])
		}
	}
	if capacity := p.nSets * p.ways; total > capacity {
		return fmt.Errorf("total residency %d exceeds partition capacity %d", total, capacity)
	}
	return nil
}

// tenantPartStats is one (partition, tenant) accounting cell, the only
// per-request record the service keeps: every other view of served traffic
// (partition, tenant and run totals, batch and control-interval measurements)
// is a merge of cells or a delta of their cumulative totals. The one other
// per-request histogram, partition.hist, is by construction the merge of its
// partition's cell sojourn histograms (see there for why it is kept). Each
// count is stored once: the cell's ops and latency sum are its sojourn
// histogram's exact Count and Sum, and its hits are its HBM histogram's
// Count. Touched only by the shard draining the partition, merged in
// partition order at reporting boundaries — the same determinism
// decomposition as the partition itself.
type tenantPartStats struct {
	bytesAdmitted uint64
	// queueSum sums the outstanding-window depth the tenant's device-routed
	// requests observed at arrival (dataflow timing; always zero under
	// flat), the numerator of the queue_depth QoS metric.
	queueSum uint64
	hist     *stats.Histogram // sojourn time: queueing plus service
	cxlHist  *stats.Histogram // link round trip of device-routed requests
	// hbmHist is the device time of hits: cache hits and host-routed
	// requests (served from host DRAM, counted as hits) alike.
	hbmHist *stats.Histogram
	ssdHist *stats.Histogram // device time of misses
	// intervalHist is the sojourn time over the current control interval,
	// emptied at every control step. Only the cells of a p99_ns tenant have
	// one: a percentile is the one interval measurement that is not a
	// difference of cumulative totals.
	intervalHist *stats.Histogram
}

// newTenantPartStats builds an empty cell for a tenant of the given spec.
func newTenantPartStats(spec TenantSpec) tenantPartStats {
	ts := tenantPartStats{
		hist:    stats.DefaultLatencyHistogram(),
		cxlHist: stats.DefaultLatencyHistogram(),
		hbmHist: stats.DefaultLatencyHistogram(),
		ssdHist: stats.DefaultLatencyHistogram(),
	}
	if spec.QoS != nil && spec.QoS.Metric == QoSP99Ns {
		ts.intervalHist = stats.DefaultLatencyHistogram()
	}
	return ts
}

// totals is one tenant's cumulative accounting, summed over its cells (see
// Service.tenantTotals). A measurement over an interval is the difference
// of the totals at its two ends (see tenantState.mark).
type totals struct {
	ops, hits, bytesAdmitted, queueSum uint64
	latSumNs                           int64
}
