// Command icgmm-sim runs the end-to-end ICGMM system simulation on a trace:
// it trains (or loads) the GMM policy engine, drives the trace through the
// DRAM cache with the paper's latency model, and reports miss rate and
// average memory access latency.
//
// Usage:
//
//	icgmm-sim -trace dlrm.trace -policy gmm-caching-eviction
//	icgmm-sim -bench dlrm -n 500000 -policy lru
//	icgmm-sim -bench stream -policy all        # Fig. 6-style comparison
//	icgmm-sim -bench dlrm -model dlrm.gmm -policy gmm-eviction-only
//	icgmm-sim -grid sweep.json -workers 8      # scenario grid on 8 workers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace file (binary format)")
		bench     = flag.String("bench", "", "generate this benchmark instead of reading a trace")
		n         = flag.Int("n", 500_000, "requests when generating")
		seed      = flag.Int64("seed", 1, "generator seed")
		pol       = flag.String("policy", "all", "lru|fifo|lfu|random|clock|slru|srrip|belady|belady-bypass|gmm-caching-only|gmm-eviction-only|gmm-caching-eviction|all")
		modelPath = flag.String("model", "", "pre-trained GMM model (JSON); trains in-process when empty")
		cacheMB   = flag.Int("cache-mb", 64, "cache size in MiB")
		ways      = flag.Int("ways", 8, "cache associativity")
		k         = flag.Int("k", 256, "GMM components when training in-process")
		noOverlap = flag.Bool("no-overlap", false, "serialize GMM inference after SSD access")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = one per core, 1 = sequential)")
		gridP     = flag.String("grid", "", "JSON scenario grid file; sweeps workload × policy × cache × seed")
	)
	flag.Parse()

	if *gridP != "" {
		// The grid file is the single source of truth for its scenarios;
		// refuse per-run flags that it would silently override.
		var clash []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "grid", "workers":
			default:
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			fmt.Fprintf(os.Stderr, "icgmm-sim: -grid ignores %s; set them in the grid file instead\n",
				strings.Join(clash, ", "))
			os.Exit(1)
		}
		if err := runGrid(*gridP, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "icgmm-sim:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*tracePath, *bench, *n, *seed, *pol, *modelPath, *cacheMB, *ways, *k, *noOverlap, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "icgmm-sim:", err)
		os.Exit(1)
	}
}

// runGrid fans a scenario grid out over the experiment engine.
func runGrid(gridPath string, workers int) error {
	o := experiments.DefaultOptions()
	o.Config.Workers = workers
	results, err := experiments.RunGridFile(gridPath, o, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Println(experiments.GridTable(results))
	return nil
}

func run(tracePath, bench string, n int, seed int64, pol, modelPath string, cacheMB, ways, k int, noOverlap bool, workers int) error {
	tr, err := loadTrace(tracePath, bench, n, seed)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Cache = cache.Config{SizeBytes: uint64(cacheMB) << 20, BlockBytes: trace.PageSize, Ways: ways}
	cfg.Train.K = k
	cfg.Overlap = !noOverlap
	cfg.Workers = workers

	var tg *core.TrainedGMM
	if _, perr := policy.ParseGMMMode(pol); pol == "all" || perr == nil {
		tg, err = trainOrLoad(tr, modelPath, cfg)
		if err != nil {
			return err
		}
	}

	if pol == "all" {
		cmp, err := core.CompareTrained(benchName(bench, tracePath), tr, tg, cfg)
		if err != nil {
			return err
		}
		report(cmp.LRU)
		report(cmp.Caching)
		report(cmp.Eviction)
		report(cmp.Combined)
		best := cmp.BestGMM()
		fmt.Printf("\nbest GMM strategy: %s (miss %.2f%% vs LRU %.2f%%, latency -%.2f%%)\n",
			best.Policy, best.MissRatePct(), cmp.LRU.MissRatePct(), cmp.LatencyReductionPct())
		return nil
	}

	p, overhead, err := buildPolicy(pol, tr, tg, cfg)
	if err != nil {
		return err
	}
	res, err := core.Run(tr, p, overhead, cfg)
	if err != nil {
		return err
	}
	report(res)
	return nil
}

func benchName(bench, tracePath string) string {
	if bench != "" {
		return bench
	}
	return tracePath
}

func loadTrace(tracePath, bench string, n int, seed int64) (trace.Trace, error) {
	switch {
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadBinary(f)
	case bench != "":
		g, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		return g.Generate(n, seed), nil
	default:
		return nil, fmt.Errorf("need -trace or -bench")
	}
}

func trainOrLoad(tr trace.Trace, modelPath string, cfg core.Config) (*core.TrainedGMM, error) {
	if modelPath == "" {
		start := time.Now()
		tg, err := core.Train(tr, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trained GMM (K=%d) in %v: %d EM iterations, converged=%v\n",
			tg.Result.Model.K(), time.Since(start).Round(time.Millisecond),
			tg.Result.Iters, tg.Result.Converged)
		return tg, nil
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, norm, err := gmm.Load(f)
	if err != nil {
		return nil, err
	}
	quant, qrep := gmm.Quantize(m)
	if qrep.Saturated > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d quantized model constants saturate Q16.16; fixed-point scores are unfaithful\n", qrep.Saturated)
	}
	tg := &core.TrainedGMM{
		Result:      &gmm.TrainResult{Model: m},
		Quantized:   quant,
		QuantReport: qrep,
		Norm:        norm,
		Transform:   cfg.Transform,
	}
	// Loaded models still need a threshold matched to this trace; run the
	// same empirical sweep Train performs.
	if _, err := core.CalibrateThreshold(tr, tg, cfg); err != nil {
		return nil, err
	}
	return tg, nil
}

func buildPolicy(name string, tr trace.Trace, tg *core.TrainedGMM, cfg core.Config) (cache.Policy, time.Duration, error) {
	return experiments.PolicyByName(name, tr, tg, cfg)
}

func report(r core.RunResult) {
	fmt.Printf("%-22s miss %6.2f%%  avg latency %-10v  (hits %d, misses %d, bypasses %d, writebacks %d)\n",
		r.Policy, r.MissRatePct(), r.AvgLatency,
		r.Cache.Hits, r.Cache.Misses, r.Cache.Bypasses, r.Cache.WriteBacks)
}
