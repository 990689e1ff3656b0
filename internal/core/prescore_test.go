package core

import (
	"reflect"
	"testing"

	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestPrescoredReplayMatchesLive pins the batching contract: a replay fed
// precomputed block scores must produce exactly the result of a replay that
// scores each miss live, at the Algorithm 1 timestamp of its arrival index,
// under the float model and its Q16.16 form alike. The "tight" runs make
// every score count: a one-request window gives each request its own
// timestamp, a 64-block cache evicts, and a fixed 20% quantile threshold
// bypasses, so a clock off by one request on either side changes the replay.
func TestPrescoredReplayMatchesLive(t *testing.T) {
	t.Parallel()
	tr := workload.NewHashmap().Generate(30_000, 1)
	for _, quantized := range []bool{false, true} {
		for _, tight := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000}
			cfg.Quantized = quantized
			if tight {
				cfg.Transform.LenWindow, cfg.Transform.LenAccessShot = 1, 64
				cfg.Cache.SizeBytes = 64 * cfg.Cache.BlockBytes
				cfg.AutoThreshold, cfg.ThresholdPct = false, 0.2
			}
			tg, err := Train(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := tg.Scorer().(*gmm.QuantizedModel); ok != quantized {
				t.Fatalf("quantized=%v: replays score through %T", quantized, tg.Scorer())
			}
			scores := tg.PrescoreTrace(tr)
			for _, mode := range []policy.GMMMode{policy.GMMCachingOnly, policy.GMMEvictionOnly, policy.GMMCachingEviction} {
				live, err := Run(tr, tg.Policy(mode), cfg.GMMInference, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pre, err := Run(tr, tg.policyWithScores(mode, tg.Threshold, scores), cfg.GMMInference, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(live, pre) {
					t.Errorf("quantized=%v tight=%v %v: prescored replay diverged from live replay:\nlive %+v\npre  %+v", quantized, tight, mode, live, pre)
				}
			}
		}
	}
}

// TestCompareTrainedDeterministicAcrossWorkers pins that the parallel policy
// fan-out does not perturb any result.
func TestCompareTrainedDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000}
	tr := workload.NewHashmap().Generate(30_000, 1)
	run := func(workers int) *Comparison {
		c := cfg
		c.Workers = workers
		tg, err := Train(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := CompareTrained("hashmap", tr, tg, c)
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Errorf("comparison differs between 1 and 8 workers:\nseq %+v\npar %+v", seq, par)
	}
}

// TestPrescoreTraceLength sanity-checks the prescoring pass shape.
func TestPrescoreTraceLength(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Train = gmm.TrainConfig{K: 4, MaxIters: 5, Seed: 1, MaxSamples: 2000}
	cfg.AutoThreshold = false
	tr := workload.NewHeap().Generate(10_000, 1)
	tg, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scores := tg.PrescoreTrace(tr)
	if len(scores) != len(tr) {
		t.Fatalf("prescored %d accesses, want %d", len(scores), len(tr))
	}
	for i, s := range scores {
		if s < 0 {
			t.Fatalf("negative density %v at access %d", s, i)
		}
	}
}
