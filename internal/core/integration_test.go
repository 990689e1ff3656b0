package core

import (
	"testing"

	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These integration tests exercise whole-pipeline properties that span
// modules: quantized inference end to end, the Belady bound, generative
// round trips, and classic-policy orderings on the benchmark workloads.

func TestQuantizedPipelineMatchesFloatClosely(t *testing.T) {
	t.Parallel()
	tr := workload.NewHashmap().Generate(80000, 4)
	cfgF := testConfig()
	tgF, err := Train(tr, cfgF)
	if err != nil {
		t.Fatal(err)
	}
	cfgQ := testConfig()
	cfgQ.Quantized = true
	tgQ, err := Train(tr, cfgQ)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(tr, tgF.Policy(policy.GMMCachingEviction), cfgF.GMMInference, cfgF)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := Run(tr, tgQ.Policy(policy.GMMCachingEviction), cfgQ.GMMInference, cfgQ)
	if err != nil {
		t.Fatal(err)
	}
	// Q16.16 quantization must not change the decisions enough to move
	// the miss rate by more than 2 percentage points.
	diff := rf.Cache.MissRate() - rq.Cache.MissRate()
	if diff < -0.02 || diff > 0.02 {
		t.Errorf("float miss %.4f vs quantized %.4f differ too much",
			rf.Cache.MissRate(), rq.Cache.MissRate())
	}
}

func TestNoPolicyBeatsBelady(t *testing.T) {
	t.Parallel()
	// Belady is the offline optimum for eviction; with admission the GMM
	// could in principle skip never-reused pages Belady caches, so compare
	// against belady-bypass, the admission-aware oracle.
	tr := workload.NewHeap().Generate(60000, 5)
	cfg := testConfig()
	tg, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(tr, policy.NewBelady(tr, true), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]func() (RunResult, error){
		"lru": func() (RunResult, error) { return Run(tr, policy.NewLRU(), 0, cfg) },
		"gmm": func() (RunResult, error) {
			return Run(tr, tg.Policy(policy.GMMCachingEviction), cfg.GMMInference, cfg)
		},
		"slru":  func() (RunResult, error) { return Run(tr, policy.NewSLRU(), 0, cfg) },
		"srrip": func() (RunResult, error) { return Run(tr, policy.NewSRRIP(), 0, cfg) },
	}
	for name, run := range policies {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.MissRate() < oracle.Cache.MissRate()-1e-9 {
			t.Errorf("%s miss rate %.4f beats the Belady-bypass oracle %.4f",
				name, res.Cache.MissRate(), oracle.Cache.MissRate())
		}
	}
}

func TestAllPoliciesRunAllBenchmarks(t *testing.T) {
	t.Parallel()
	// Smoke matrix: every policy engine must survive every benchmark
	// without violating cache invariants. Short traces keep it quick.
	if testing.Short() {
		t.Skip("matrix test skipped in -short mode")
	}
	cfg := testConfig()
	for _, g := range workload.Registry() {
		tr := g.Generate(15000, 8)
		for _, mk := range []func() (string, func() (RunResult, error)){
			func() (string, func() (RunResult, error)) {
				return "lru", func() (RunResult, error) { return Run(tr, policy.NewLRU(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "fifo", func() (RunResult, error) { return Run(tr, policy.NewFIFO(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "lfu", func() (RunResult, error) { return Run(tr, policy.NewLFU(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "random", func() (RunResult, error) { return Run(tr, policy.NewRandom(3), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "clock", func() (RunResult, error) { return Run(tr, policy.NewClock(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "slru", func() (RunResult, error) { return Run(tr, policy.NewSLRU(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "srrip", func() (RunResult, error) { return Run(tr, policy.NewSRRIP(), 0, cfg) }
			},
			func() (string, func() (RunResult, error)) {
				return "belady", func() (RunResult, error) { return Run(tr, policy.NewBelady(tr, false), 0, cfg) }
			},
		} {
			name, run := mk()
			res, err := run()
			if err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name(), err)
			}
			if res.Cache.Accesses() != 15000 {
				t.Errorf("%s on %s: %d accesses", name, g.Name(), res.Cache.Accesses())
			}
		}
	}
}

func TestTrainWithChooseKIntegration(t *testing.T) {
	t.Parallel()
	// ChooseK feeding the deployment path: pick K by BIC, then run the
	// selected model through the simulator.
	tr := workload.NewMemtier().Generate(50000, 9)
	cfg := testConfig()
	samples := trace.Preprocess(tr, cfg.Transform)
	norm := trace.FitNormalizer(samples)
	best, sweep, err := gmm.ChooseK(norm.ApplyAll(samples),
		[]int{2, 8, 16}, gmm.TrainConfig{MaxIters: 10, Seed: 1, MaxSamples: 4000}, gmm.ByBIC)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 3 {
		t.Fatalf("sweep entries = %d", len(sweep))
	}
	quant, _ := gmm.Quantize(best.Result.Model)
	tg := &TrainedGMM{
		Result:    best.Result,
		Quantized: quant,
		Norm:      norm,
		Threshold: 0,
		Transform: cfg.Transform,
	}
	res, err := Run(tr, tg.Policy(policy.GMMEvictionOnly), cfg.GMMInference, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Accesses() != 50000 {
		t.Errorf("accesses = %d", res.Cache.Accesses())
	}
}

func TestCalibrateThresholdForLoadedModel(t *testing.T) {
	t.Parallel()
	// A model loaded from disk arrives without a calibrated threshold; the
	// exported sweep must pick one at least as good (on the calibration
	// trace) as any fixed quantile.
	tr := workload.NewDLRM().Generate(40000, 10)
	cfg := testConfig()
	tg, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the threshold as a fresh load would and re-calibrate.
	loaded := &TrainedGMM{
		Result:    tg.Result,
		Quantized: tg.Quantized,
		Norm:      tg.Norm,
		Transform: tg.Transform,
	}
	th, err := CalibrateThreshold(tr, loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != th {
		t.Error("threshold not stored in the bundle")
	}
	calibrated, err := Run(tr, loaded.Policy(policy.GMMCachingEviction), cfg.GMMInference, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate fixed choice: threshold at the 50% quantile.
	fixed := *loaded
	samples := loaded.Norm.ApplyAll(trace.Preprocess(tr, loaded.Transform))
	fixed.Threshold = policy.CalibrateThreshold(loaded.Scorer(), samples, 0.5)
	fixedRes, err := Run(tr, fixed.Policy(policy.GMMCachingEviction), cfg.GMMInference, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.Cache.MissRate() > fixedRes.Cache.MissRate()+1e-9 {
		t.Errorf("calibrated threshold miss %.4f worse than fixed-quantile %.4f",
			calibrated.Cache.MissRate(), fixedRes.Cache.MissRate())
	}
	cfgBad := cfg
	cfgBad.Cache.Ways = 0
	if _, err := CalibrateThreshold(tr, loaded, cfgBad); err == nil {
		t.Error("invalid config accepted")
	}
}
