package serve

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TestTenantSharesNeverOvercommitRandom is the capacity-share property test:
// over 1000 randomized (geometry, budgets, traffic) episodes, no admission
// sequence may push a tenant past its block budget or the partition past its
// capacity, and the policy's residency counters must stay consistent with
// the ground-truth owner map. Random scores around the per-tenant thresholds
// exercise the bypass, grow, self-replace and cross-tenant-evict paths.
func TestTenantSharesNeverOvercommitRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	modes := []policy.GMMMode{policy.GMMCachingOnly, policy.GMMEvictionOnly, policy.GMMCachingEviction}
	for iter := 0; iter < 1000; iter++ {
		ways := []int{2, 4, 8}[rng.Intn(3)]
		sets := 1 << uint(rng.Intn(4)) // 1..8 sets
		blocks := sets * ways
		nTenants := 1 + rng.Intn(4)

		// Random budgets: a mix of tight, generous and unconstrained, with
		// the sum capped at the partition (the tenantBudgets contract).
		budgets := make([]int, nTenants)
		remaining := blocks
		for i := range budgets {
			b := 1 + rng.Intn(blocks/nTenants+1)
			if b > remaining {
				b = remaining
			}
			budgets[i] = b
			remaining -= b
		}

		mode := modes[rng.Intn(len(modes))]
		pol := newTenantGMM(mode, budgets, 0.5)
		cfg := cache.Config{
			SizeBytes:  uint64(blocks) * trace.PageSize,
			BlockBytes: trace.PageSize,
			Ways:       ways,
		}
		c, err := cache.New(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		pol.bindCache(c)
		var score float64
		pol.bindScorer(func(uint64) float64 { return score })

		// Random per-tenant thresholds so bypass and admit interleave.
		ths := make([]float64, nTenants)
		for i := range ths {
			ths[i] = rng.Float64()
		}
		pol.SetThresholds(ths)

		pageSpan := uint64(blocks * (1 + rng.Intn(4))) // contention: up to 4x capacity
		steps := 200 + rng.Intn(400)
		for s := 0; s < steps; s++ {
			tenant := rng.Intn(nTenants)
			score = rng.Float64()
			pol.Begin(tenant)
			c.Access(rng.Uint64()%pageSpan, rng.Intn(4) == 0)

			// Occasionally resize shares mid-traffic (the elastic-share
			// lever, at what would be a batch boundary): any legal transfer
			// must leave the invariants intact immediately.
			if s%71 == 70 && nTenants > 1 {
				donor, recv := rng.Intn(nTenants), rng.Intn(nTenants)
				if donor != recv && pol.budget[donor] > 1 {
					q := 1 + rng.Intn(pol.budget[donor]-1)
					pol.shiftBudget(donor, recv, q)
					if err := pol.checkShares(); err != nil {
						t.Fatalf("iter %d mode %v resize at step %d: %v", iter, mode, s, err)
					}
				}
			}

			if s%64 == 0 {
				if err := pol.checkShares(); err != nil {
					t.Fatalf("iter %d mode %v step %d: %v", iter, mode, s, err)
				}
			}
		}
		if err := pol.checkShares(); err != nil {
			t.Fatalf("iter %d mode %v end: %v", iter, mode, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("iter %d mode %v: %v", iter, mode, err)
		}
		// The policy's total residency must equal the cache's occupancy —
		// the two structures may never drift apart.
		var total uint64
		for ti := range budgets {
			total += uint64(pol.Resident(ti))
		}
		if total != c.Occupancy() {
			t.Fatalf("iter %d: residency sum %d != cache occupancy %d", iter, total, c.Occupancy())
		}
	}
}

// tenantHarness builds a bound (cache, policy) pair plus an access helper
// for the pinned-semantics tests below; the helper stages the access's score
// for the policy's scoring hook.
func tenantHarness(t *testing.T, mode policy.GMMMode, budgets []int, blocks, ways int) (*cache.Cache, *tenantGMM, func(tenant int, page uint64, score float64) cache.AccessResult) {
	t.Helper()
	pol := newTenantGMM(mode, budgets, 0)
	cfg := cache.Config{SizeBytes: uint64(blocks) * trace.PageSize, BlockBytes: trace.PageSize, Ways: ways}
	c, err := cache.New(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	pol.bindCache(c)
	var staged float64
	pol.bindScorer(func(uint64) float64 { return staged })
	return c, pol, func(tenant int, page uint64, score float64) cache.AccessResult {
		staged = score
		pol.Begin(tenant)
		return c.Access(page, false)
	}
}

// TestTenantBudgetSelfReplacement pins the at-budget semantics exactly: a
// tenant at its budget admits only with a flat footprint — replacing its own
// lowest-scored block when the full target set holds one, or releasing its
// coldest block first otherwise — and never exceeds its budget.
func TestTenantBudgetSelfReplacement(t *testing.T) {
	t.Parallel()
	// One set of 4 ways, tenant 0 budgeted 2 blocks, tenant 1 budgeted 2.
	c, pol, access := tenantHarness(t, policy.GMMCachingEviction, []int{2, 2}, 4, 4)
	// Tenant 0 fills its budget.
	access(0, 0, 1.0)
	access(0, 1, 2.0)
	if pol.Resident(0) != 2 {
		t.Fatalf("resident = %d", pol.Resident(0))
	}
	// At budget, a page colder than the tenant's coldest resident block must
	// bypass: releasing a warmer block for it would churn the working set.
	if res := access(0, 5, 0.5); res.Admitted {
		t.Fatalf("colder-than-coldest page admitted at budget: %+v", res)
	}
	// At budget with free ways in the set: admit by releasing the tenant's
	// coldest block (page 0, score 1.0) — footprint stays flat, the hot new
	// page is not locked out.
	res := access(0, 2, 9.0)
	if !res.Admitted || res.Evicted || pol.Resident(0) != 2 {
		t.Fatalf("at-budget admission with free ways: %+v resident=%d", res, pol.Resident(0))
	}
	if c.Contains(0) || !c.Contains(1) || !c.Contains(2) {
		t.Fatal("release picked the wrong block")
	}
	// Tenant 1 takes the remaining ways.
	access(1, 3, 5.0)
	access(1, 7, 6.0)
	// Set now full. The swap-up rule applies in-set too: a page that cannot
	// beat tenant 0's own lowest-scored block (page 1, score 2.0) bypasses.
	if res := access(0, 6, 1.5); res.Admitted {
		t.Fatalf("in-set self-replacement admitted a colder page: %+v", res)
	}
	// Tenant 0 at budget must self-replace its lowest-scored block (page 1,
	// score 2.0), never tenant 1's.
	res = access(0, 4, 9.5)
	if !res.Admitted || !res.Evicted || res.VictimPage != 1 {
		t.Fatalf("self-replacement picked wrong victim: %+v", res)
	}
	if pol.Resident(0) != 2 || pol.Resident(1) != 2 {
		t.Fatalf("residency after self-replace: %d/%d", pol.Resident(0), pol.Resident(1))
	}
	if !c.Contains(2) || !c.Contains(4) || !c.Contains(3) || !c.Contains(7) {
		t.Fatal("unexpected resident set after self-replacement")
	}
	if err := pol.checkShares(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantCrossSetAccounting is the lockout regression test: a tenant at
// budget whose blocks all live in other sets must still be able to admit
// into a hot set, by releasing its coldest block elsewhere — before the fix
// it bypassed forever ("admission granted but no victim available" could
// never resolve). The no-overcommit invariant must hold throughout.
func TestTenantCrossSetAccounting(t *testing.T) {
	t.Parallel()
	// Two sets of 2 ways. Tenant 0 fills set 0 (pages 0, 2); tenant 1 fills
	// set 1 (pages 1, 3). Both are at budget.
	c, pol, access := tenantHarness(t, policy.GMMCachingEviction, []int{2, 2}, 4, 2)
	access(0, 0, 1.0)
	access(0, 2, 2.0)
	access(1, 1, 3.0)
	access(1, 3, 4.0)
	// Tenant 0 now needs page 5 (set 1), where it owns nothing: it must
	// release its own coldest block (page 0) and displace set 1's lowest-
	// scored block (tenant 1's page 1) — tenant 0 stays exactly at budget,
	// tenant 1 shrinks below its ceiling (a cap, not a guarantee).
	res := access(0, 5, 9.0)
	if !res.Admitted || !res.Evicted || res.VictimPage != 1 {
		t.Fatalf("cross-set admission = %+v, want admit evicting page 1", res)
	}
	if pol.Resident(0) != 2 || pol.Resident(1) != 1 {
		t.Fatalf("residency after cross-set admit: %d/%d, want 2/1", pol.Resident(0), pol.Resident(1))
	}
	if c.Contains(0) || !c.Contains(2) || !c.Contains(5) || !c.Contains(3) {
		t.Fatal("unexpected resident set after cross-set admission")
	}
	if err := pol.checkShares(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A tenant with no resident blocks and a zero budget still bypasses —
	// there is nothing to release, and growth is forbidden.
	pol.budget[0] = 0
	c.EvictAt(0, ownerWay(pol, 0, 0)) // drop tenant 0's remaining set-0 block
	c.EvictAt(1, ownerWay(pol, 1, 0)) // and its set-1 block
	if pol.Resident(0) != 0 {
		t.Fatalf("resident = %d after dropping all of tenant 0", pol.Resident(0))
	}
	if res := access(0, 6, 9.9); res.Admitted {
		t.Fatalf("zero-budget tenant admitted: %+v", res)
	}
	if err := pol.checkShares(); err != nil {
		t.Fatal(err)
	}
}

// ownerWay returns the first way of set si owned by tenant t, or -1.
func ownerWay(p *tenantGMM, si, t int) int {
	for w, o := range p.owner[si] {
		if int(o) == t {
			return w
		}
	}
	return -1
}

// TestTenantShiftBudget pins the share-resize primitive: budgets move in
// fixed quanta, the donor's overflow is evicted coldest-first immediately,
// and the invariants hold the moment shiftBudget returns.
func TestTenantShiftBudget(t *testing.T) {
	t.Parallel()
	// Two sets of 2 ways; tenant 0 holds 3 blocks, tenant 1 one block.
	c, pol, access := tenantHarness(t, policy.GMMCachingEviction, []int{3, 1}, 4, 2)
	access(0, 0, 5.0) // set 0
	access(0, 2, 1.0) // set 0 — tenant 0's coldest
	access(0, 1, 4.0) // set 1
	access(1, 3, 2.0) // set 1
	if pol.Resident(0) != 3 || pol.Resident(1) != 1 {
		t.Fatalf("setup residency %d/%d", pol.Resident(0), pol.Resident(1))
	}
	// Move two blocks of capacity from tenant 0 to tenant 1: tenant 0's two
	// coldest blocks (pages 2 then 1) are evicted right away.
	if n := pol.shiftBudget(0, 1, 2); n != 2 {
		t.Fatalf("shiftBudget evicted %d blocks, want 2", n)
	}
	if pol.Budget(0) != 1 || pol.Budget(1) != 3 {
		t.Fatalf("budgets after shift = %d/%d, want 1/3", pol.Budget(0), pol.Budget(1))
	}
	if pol.Resident(0) != 1 || !c.Contains(0) || c.Contains(2) || c.Contains(1) {
		t.Fatalf("overflow eviction kept the wrong blocks (resident=%d)", pol.Resident(0))
	}
	if err := pol.checkShares(); err != nil {
		t.Fatal(err)
	}
	// The receiver can now grow into the freed capacity.
	access(1, 5, 3.0) // set 1, the way freed by the overflow eviction
	access(1, 4, 3.5) // set 0, the other freed way
	if pol.Resident(1) != 3 {
		t.Fatalf("receiver resident = %d, want 3", pol.Resident(1))
	}
	// A shift with no overflow evicts nothing.
	if n := pol.shiftBudget(1, 0, 0); n != 0 {
		t.Fatalf("zero-quantum shift evicted %d blocks", n)
	}
	if err := pol.checkShares(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
