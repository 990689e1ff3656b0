package core

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig returns a small, fast configuration for unit tests: a 1 MiB
// cache and a tiny GMM.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache = cache.Config{SizeBytes: 1 << 20, BlockBytes: 4096, Ways: 8}
	cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 15, Seed: 1, MaxSamples: 4000}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.HitLatency = 0
	if err := c.Validate(); err == nil {
		t.Error("zero hit latency accepted")
	}
	c = DefaultConfig()
	c.ThresholdPct = 2
	if err := c.Validate(); err == nil {
		t.Error("threshold pct > 1 accepted")
	}
	c = DefaultConfig()
	c.SSD = ssd.Profile{}
	if err := c.Validate(); err == nil {
		t.Error("invalid SSD profile accepted")
	}
}

func TestRunAllHitsLatency(t *testing.T) {
	t.Parallel()
	// Single page accessed repeatedly: 1 cold miss then hits at 1 us.
	var tr trace.Trace
	for i := 0; i < 1000; i++ {
		tr = append(tr, trace.Record{Op: trace.Read, Addr: 0})
	}
	tr.Stamp()
	res, err := Run(tr, policy.NewLRU(), 0, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Misses != 1 || res.Cache.Hits != 999 {
		t.Fatalf("stats = %+v", res.Cache)
	}
	// Mean = (75us + 999 * 1us) / 1000 ≈ 1.074us.
	if res.AvgLatency < time.Microsecond || res.AvgLatency > 2*time.Microsecond {
		t.Errorf("AvgLatency = %v, want ~1.07us", res.AvgLatency)
	}
	if res.SSDReads != 1 || res.SSDWrites != 0 {
		t.Errorf("SSD ops = %d/%d", res.SSDReads, res.SSDWrites)
	}
}

func TestRunMissLatencyIncludesWriteback(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	// Cache with a single set of 1 way: every distinct page evicts.
	cfg.Cache = cache.Config{SizeBytes: 4096, BlockBytes: 4096, Ways: 1}
	tr := trace.Trace{
		{Op: trace.Write, Addr: 0},                   // miss, fill, dirty
		{Op: trace.Read, Addr: 1 << trace.PageShift}, // miss, evict dirty 0
		{Op: trace.Read, Addr: 2 << trace.PageShift}, // miss, evict clean 1
	}
	tr.Stamp()
	res, err := Run(tr, policy.NewLRU(), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.WriteBacks != 1 {
		t.Fatalf("writebacks = %d, want 1", res.Cache.WriteBacks)
	}
	// Total: 75 (fill) + 75+900 (fill+wb) + 75 (fill) = 1125 us over 3 reqs.
	wantMean := time.Duration(1125000/3) * time.Nanosecond
	if res.AvgLatency != wantMean {
		t.Errorf("AvgLatency = %v, want %v", res.AvgLatency, wantMean)
	}
	if res.SSDReads != 3 || res.SSDWrites != 1 {
		t.Errorf("SSD ops = %d reads/%d writes", res.SSDReads, res.SSDWrites)
	}
}

func TestRunOverlapHidesEngineLatency(t *testing.T) {
	t.Parallel()
	tr := trace.Trace{{Op: trace.Read, Addr: 0}}
	tr.Stamp()
	cfg := testConfig()
	cfg.Overlap = true
	res, err := Run(tr, policy.NewLRU(), 3*time.Microsecond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3us inference hides entirely behind the 75us SSD read.
	if res.AvgLatency != 75*time.Microsecond {
		t.Errorf("overlapped AvgLatency = %v, want 75us", res.AvgLatency)
	}
	if res.EngineBusy != 0 {
		t.Errorf("EngineBusy = %v, want 0 with overlap", res.EngineBusy)
	}

	cfg.Overlap = false
	res, err = Run(tr, policy.NewLRU(), 3*time.Microsecond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 78*time.Microsecond {
		t.Errorf("serialized AvgLatency = %v, want 78us", res.AvgLatency)
	}
	if res.EngineBusy != 3*time.Microsecond {
		t.Errorf("EngineBusy = %v, want 3us", res.EngineBusy)
	}
}

func TestRunOverlapEngineSlowerThanSSD(t *testing.T) {
	t.Parallel()
	// If the engine were slower than the SSD (as an LSTM would be), the
	// excess becomes visible even with overlap.
	tr := trace.Trace{{Op: trace.Read, Addr: 0}}
	tr.Stamp()
	cfg := testConfig()
	cfg.Overlap = true
	res, err := Run(tr, policy.NewLRU(), 46300*time.Microsecond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 46300*time.Microsecond {
		t.Errorf("AvgLatency = %v, want 46.3ms (engine-bound)", res.AvgLatency)
	}
	if res.EngineBusy != 46300*time.Microsecond-75*time.Microsecond {
		t.Errorf("EngineBusy = %v", res.EngineBusy)
	}
}

func TestTrainProducesUsableEngine(t *testing.T) {
	t.Parallel()
	tr := workload.NewParsec().Generate(60000, 1)
	cfg := testConfig()
	tg, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Result.Model.K() == 0 {
		t.Fatal("empty model")
	}
	if err := tg.Result.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if tg.Quantized.K() != tg.Result.Model.K() {
		t.Error("quantized model K mismatch")
	}
	// Each Policy() call must be independent (fresh score tables).
	p1 := tg.Policy(policy.GMMCachingEviction)
	p2 := tg.Policy(policy.GMMCachingEviction)
	if p1 == p2 {
		t.Error("Policy returned shared engine")
	}
	if p1.Threshold() != tg.Threshold {
		t.Error("policy threshold mismatch")
	}
}

func TestTrainQuantizedScorer(t *testing.T) {
	t.Parallel()
	tr := workload.NewParsec().Generate(40000, 2)
	cfg := testConfig()
	cfg.Quantized = true
	tg, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tg.Scorer().(*gmm.QuantizedModel); !ok {
		t.Errorf("Scorer() = %T, want *gmm.QuantizedModel", tg.Scorer())
	}
	cfg.Quantized = false
	tg2, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tg2.Scorer().(*gmm.Model); !ok {
		t.Errorf("Scorer() = %T, want *gmm.Model", tg2.Scorer())
	}
}

func TestCompareGMMBeatsLRU(t *testing.T) {
	t.Parallel()
	// The headline claim (Fig. 6): on a workload with hot clusters plus
	// scan pollution, the best GMM strategy has a lower miss rate than LRU.
	tr := workload.NewParsec().Generate(120000, 3)
	cfg := testConfig()
	cmp, err := Compare("parsec", tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := cmp.BestGMM()
	if best.Cache.MissRate() >= cmp.LRU.Cache.MissRate() {
		t.Errorf("best GMM miss rate %.4f >= LRU %.4f",
			best.Cache.MissRate(), cmp.LRU.Cache.MissRate())
	}
	if cmp.LatencyReductionPct() <= 0 {
		t.Errorf("latency reduction = %.2f%%, want > 0", cmp.LatencyReductionPct())
	}
}

func TestComparisonBestGMMPicksMinimum(t *testing.T) {
	t.Parallel()
	mk := func(misses uint64) RunResult {
		return RunResult{Cache: cache.Stats{Hits: 100 - misses, Misses: misses}}
	}
	c := Comparison{
		LRU:      mk(50),
		Caching:  mk(30),
		Eviction: mk(20),
		Combined: mk(25),
	}
	if got := c.BestGMM(); got.Cache.Misses != 20 {
		t.Errorf("BestGMM picked %d misses, want 20", got.Cache.Misses)
	}
}

func TestLatencyReductionPctZeroLRU(t *testing.T) {
	t.Parallel()
	var c Comparison
	if c.LatencyReductionPct() != 0 {
		t.Error("zero LRU latency should give 0 reduction")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Cache.Ways = 0
	if _, err := Run(trace.Trace{}, policy.NewLRU(), 0, cfg); err == nil {
		t.Error("invalid cache config accepted")
	}
	if _, err := Train(trace.Trace{}, cfg); err == nil {
		t.Error("Train accepted invalid config")
	}
}

func TestRunBypassedWritePaysProgramLatency(t *testing.T) {
	t.Parallel()
	// A policy that rejects everything: write misses go straight to SSD.
	cfg := testConfig()
	tr := trace.Trace{{Op: trace.Write, Addr: 0}}
	tr.Stamp()
	res, err := Run(tr, rejectAll{}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 900*time.Microsecond {
		t.Errorf("bypassed write latency = %v, want 900us", res.AvgLatency)
	}
	if res.SSDWrites != 1 {
		t.Errorf("SSD writes = %d, want 1", res.SSDWrites)
	}
	// Bypassed read pays the read latency.
	tr2 := trace.Trace{{Op: trace.Read, Addr: 0}}
	tr2.Stamp()
	res, err = Run(tr2, rejectAll{}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 75*time.Microsecond {
		t.Errorf("bypassed read latency = %v, want 75us", res.AvgLatency)
	}
}

type rejectAll struct{}

func (rejectAll) Name() string                      { return "reject-all" }
func (rejectAll) Attach(int, int)                   {}
func (rejectAll) OnAccess(cache.Request)            {}
func (rejectAll) OnHit(int, int, cache.Request)     {}
func (rejectAll) Admit(cache.Request) bool          { return false }
func (rejectAll) Victim(int, []cache.BlockView) int { return 0 }
func (rejectAll) OnEvict(int, int, uint64)          {}
func (rejectAll) OnInsert(int, int, cache.Request)  {}
