package serve_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testGen is a small, cacheable working set so hit ratios are high and
// refresh effects are visible.
func testGen(t testing.TB) workload.Generator {
	t.Helper()
	g, err := workload.NewCustom(workload.CustomConfig{
		Name:       "serve-test",
		TotalPages: 4096,
		Clusters:   []workload.ClusterSpec{{CenterPage: 600, Spread: 40}, {CenterPage: 2600, Spread: 60}},
		WriteFrac:  0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testConfig is a laptop-sized serving configuration: 1 MiB cache over 8
// partitions, small GMM, no metrics.
func testConfig(shards int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards = shards
	cfg.Partitions = 8
	cfg.Cache = cache.Config{SizeBytes: 1 << 20, BlockBytes: trace.PageSize, Ways: 8}
	cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000, LloydIters: 2}
	// Wrap the Algorithm 1 clock every 32*256 = 8192 requests so the 30k
	// warm-up trace covers full access shots (see Config.Transform).
	cfg.Transform.LenAccessShot = 256
	cfg.BatchSize = 1024
	cfg.ReportEvery = 8
	return cfg
}

func trainTestBundle(t testing.TB, cfg serve.Config) *serve.Bundle {
	t.Helper()
	warm := testGen(t).Generate(30_000, 1)
	b, err := serve.TrainBundle(warm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runService(t testing.TB, cfg serve.Config, ops uint64, olCfg workload.OpenLoopConfig) (*serve.Snapshot, *serve.Service) {
	t.Helper()
	b := trainTestBundle(t, cfg)
	svc, err := serve.New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	ol, err := workload.NewOpenLoop(testGen(t), olCfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Run(serve.NewOpenLoopSource(ol, ops))
	if err != nil {
		t.Fatal(err)
	}
	return snap, svc
}

// TestServeDeterministicAcrossShards is the subsystem's core contract: for a
// fixed seed, shards=1 and shards=8 produce identical aggregate AND
// per-partition metrics, down to the JSONL metric bytes, with sync refresh
// enabled and firing.
func TestServeDeterministicAcrossShards(t *testing.T) {
	t.Parallel()
	olCfg := workload.OpenLoopConfig{
		RatePerSec: 5e6, BurstAmp: 0.3, Seed: 7,
		// A working-set shift two thirds in makes the refresh path part of
		// the determinism surface, not just steady-state serving.
		ShiftAfter: 40 * 1024, ShiftOffsetPages: 1 << 20,
	}
	run := func(shards int) (*serve.Snapshot, string) {
		var jsonl bytes.Buffer
		cfg := testConfig(shards)
		cfg.Metrics = &jsonl
		cfg.Refresh.Mode = serve.RefreshSync
		cfg.Refresh.Drift = serve.DriftConfig{Delta: 0.25, Sustain: 2, Warmup: 4, Alpha: 0.05}
		cfg.Refresh.WindowSamples = 8192
		cfg.Refresh.MinSamples = 2048
		snap, _ := runService(t, cfg, 60*1024, olCfg)
		return snap, jsonl.String()
	}
	snap1, out1 := run(1)
	snap8, out8 := run(8)
	if !reflect.DeepEqual(snap1, snap8) {
		t.Errorf("snapshots differ between shards=1 and shards=8:\n%+v\n%+v", snap1, snap8)
	}
	if out1 != out8 {
		t.Errorf("JSONL metrics differ between shards=1 and shards=8:\n%s\n---\n%s", out1, out8)
	}
	if snap1.Refreshes == 0 {
		t.Error("working-set shift did not trigger a refresh; determinism test lost its refresh coverage")
	}
	if snap1.Ops != 60*1024 {
		t.Errorf("ops = %d, want %d", snap1.Ops, 60*1024)
	}
}

// TestServeEndToEnd checks the pipeline plumbing: every request is served,
// latency accounting runs, partitions see disjoint page sets, and metrics
// records appear.
func TestServeEndToEnd(t *testing.T) {
	t.Parallel()
	var jsonl bytes.Buffer
	cfg := testConfig(4)
	cfg.Metrics = &jsonl
	snap, _ := runService(t, cfg, 20_000, workload.OpenLoopConfig{RatePerSec: 2e6, Seed: 3})
	if snap.Ops != 20_000 {
		t.Fatalf("ops = %d", snap.Ops)
	}
	if snap.Cache.Accesses() != snap.Ops {
		t.Errorf("cache accesses %d != ops %d", snap.Cache.Accesses(), snap.Ops)
	}
	if snap.Latency.Count != int64(snap.Ops) {
		t.Errorf("latency samples %d != ops %d", snap.Latency.Count, snap.Ops)
	}
	if snap.Latency.Mean <= 0 || snap.MakespanNs <= 0 || snap.Throughput <= 0 {
		t.Errorf("degenerate latency accounting: %+v", snap.Latency)
	}
	// The cache-hit floor: a hit costs at least the CXL round trip plus one
	// HBM access (>300 ns with defaults).
	if snap.Latency.Min < 300*time.Nanosecond {
		t.Errorf("min latency %v below physical floor", snap.Latency.Min)
	}
	var partOps uint64
	for i, ps := range snap.Partitions {
		partOps += ps.Ops
		if ps.Ops == 0 {
			t.Errorf("partition %d served nothing", i)
		}
	}
	if partOps != snap.Ops {
		t.Errorf("partition ops sum %d != %d", partOps, snap.Ops)
	}
	for _, want := range []string{`"kind":"interval"`, `"kind":"partition"`, `"kind":"summary"`} {
		if !bytes.Contains(jsonl.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %s records", want)
		}
	}
}

// TestServeRefreshRecoversHitRatio runs the same drifting workload with
// refresh off and with sync refresh: the refreshed run must fire exactly one
// refresh for the single sustained episode and recover hit ratio the
// stale-model run permanently loses.
func TestServeRefreshRecoversHitRatio(t *testing.T) {
	t.Parallel()
	olCfg := workload.OpenLoopConfig{
		RatePerSec: 5e6, Seed: 11,
		ShiftAfter: 24 * 1024, ShiftOffsetPages: 1 << 20,
	}
	const ops = 96 * 1024
	run := func(mode serve.RefreshMode) *serve.Snapshot {
		cfg := testConfig(2)
		cfg.Refresh.Mode = mode
		cfg.Refresh.Drift = serve.DriftConfig{Delta: 0.25, Sustain: 2, Warmup: 4, Alpha: 0.05}
		cfg.Refresh.WindowSamples = 8192
		cfg.Refresh.MinSamples = 2048
		snap, _ := runService(t, cfg, ops, olCfg)
		return snap
	}
	stale := run(serve.RefreshOff)
	fresh := run(serve.RefreshSync)
	if stale.Refreshes != 0 {
		t.Fatalf("refresh-off run installed %d refreshes", stale.Refreshes)
	}
	if fresh.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want exactly 1 for one sustained drift episode", fresh.Refreshes)
	}
	if fresh.HitRatio() <= stale.HitRatio() {
		t.Errorf("refresh did not help: refreshed hit ratio %.3f <= stale %.3f",
			fresh.HitRatio(), stale.HitRatio())
	}
}

// TestServeRefreshDeferredUntilWindowFills: a drift fire that arrives before
// the sample window reaches MinSamples must not be dropped — the detector
// latches the episode and will not fire again until recovery, so the refit
// has to retry at later batch boundaries once samples accumulate.
func TestServeRefreshDeferredUntilWindowFills(t *testing.T) {
	t.Parallel()
	cfg := testConfig(2)
	cfg.BatchSize = 256
	cfg.Refresh.Mode = serve.RefreshSync
	// 16 warm-up batches (4096 requests) build a warmed-cache baseline; the
	// shift right after makes the detector fire around batch 18, when the
	// window holds ~4.6k samples — far below MinSamples.
	cfg.Refresh.Drift = serve.DriftConfig{Delta: 0.15, Sustain: 2, Warmup: 16, Alpha: 0.05}
	cfg.Refresh.WindowSamples = 8192
	cfg.Refresh.MinSamples = 8192
	olCfg := workload.OpenLoopConfig{
		RatePerSec: 5e6, Seed: 11,
		ShiftAfter: 4096, ShiftOffsetPages: 1 << 20,
	}
	snap, _ := runService(t, cfg, 16*1024, olCfg)
	if snap.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1 (fire before MinSamples must defer, not drop)", snap.Refreshes)
	}
}

func TestServeConfigValidation(t *testing.T) {
	t.Parallel()
	b := trainTestBundle(t, testConfig(1))
	bad := func(mut func(*serve.Config)) serve.Config {
		cfg := testConfig(1)
		mut(&cfg)
		return cfg
	}
	cases := map[string]serve.Config{
		"zero partitions":  bad(func(c *serve.Config) { c.Partitions = 0 }),
		"zero batch":       bad(func(c *serve.Config) { c.BatchSize = 0 }),
		"indivisible":      bad(func(c *serve.Config) { c.Partitions = 7 }),
		"bad threshold":    bad(func(c *serve.Config) { c.ThresholdPct = 2 }),
		"bad ssd channels": bad(func(c *serve.Config) { c.SSDChannels = 0 }),
		"bad drift": bad(func(c *serve.Config) {
			c.Refresh.Mode = serve.RefreshSync
			c.Refresh.Drift.Delta = 5
		}),
		"min samples beyond window": bad(func(c *serve.Config) {
			c.Refresh.Mode = serve.RefreshSync
			c.Refresh.WindowSamples = 4096
			c.Refresh.MinSamples = 8192
		}),
	}
	for name, cfg := range cases {
		if _, err := serve.New(cfg, b); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if _, err := serve.New(testConfig(1), nil); err == nil {
		t.Error("nil bundle accepted")
	}
	// Every bundle carries the float model its checkpoints persist.
	if _, err := serve.New(testConfig(1), &serve.Bundle{Scorer: b.Scorer, Norm: b.Norm, Threshold: b.Threshold}); err == nil {
		t.Error("bundle without its float model accepted")
	}
}
