package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ScenarioResult pairs one grid cell with its simulation outcome.
type ScenarioResult struct {
	Scenario engine.Scenario
	Result   core.RunResult
}

// configFor maps a grid scenario onto the base configuration.
func (o Options) configFor(s engine.Scenario) core.Config {
	cfg := o.Config
	cfg.Cache = cache.Config{SizeBytes: uint64(s.CacheMB) << 20, BlockBytes: trace.PageSize, Ways: s.Ways}
	cfg.Train.K = s.K
	cfg.Overlap = s.Overlap
	cfg.Quantized = s.Quantized
	return cfg
}

// needsGMM reports whether the scenario's policy requires a trained model:
// the GMM policies do, the baselines do not.
func needsGMM(pol string) bool {
	_, err := policy.ParseGMMMode(pol)
	return err == nil
}

// PolicyByName builds the named cache policy. GMM policies draw on the
// trained bundle (which may be nil for the rest); the Belady oracles need
// the full trace. The returned duration is the per-miss policy-engine
// overhead the latency model charges.
func PolicyByName(name string, tr trace.Trace, tg *core.TrainedGMM, cfg core.Config) (cache.Policy, time.Duration, error) {
	switch name {
	case "lru":
		return policy.NewLRU(), 0, nil
	case "fifo":
		return policy.NewFIFO(), 0, nil
	case "lfu":
		return policy.NewLFU(), 0, nil
	case "random":
		return policy.NewRandom(1), 0, nil
	case "clock":
		return policy.NewClock(), 0, nil
	case "slru":
		return policy.NewSLRU(), 0, nil
	case "srrip":
		return policy.NewSRRIP(), 0, nil
	case "belady":
		return policy.NewBelady(tr, false), 0, nil
	case "belady-bypass":
		return policy.NewBelady(tr, true), 0, nil
	}
	mode, err := policy.ParseGMMMode(name)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: unknown policy %q", name)
	}
	return tg.Policy(mode), cfg.GMMInference, nil
}

// trainKey identifies the (trace, training-config) combination a scenario's
// model depends on; scenarios sharing a key share one trace generation and
// one training run.
type trainKey struct {
	workload  string
	seed      int64
	requests  int
	cacheMB   int
	ways      int
	k         int
	overlap   bool
	quantized bool
}

func scenarioKey(s engine.Scenario) trainKey {
	return trainKey{
		workload: s.Workload, seed: s.Seed, requests: s.Requests,
		cacheMB: s.CacheMB, ways: s.Ways, k: s.K,
		overlap: s.Overlap, quantized: s.Quantized,
	}
}

// gridPrep holds the shared stages of a grid run: the distinct traces and
// trained models every scenario replay draws on.
type gridPrep struct {
	o        Options
	traceFor func(engine.Scenario) trace.Trace
	models   []trained
	trainIdx map[trainKey]int
}

// trained pairs a model with its prescored trace: the scores are threshold-
// and mode-independent, so every GMM replay of this training shares them
// instead of scoring live per miss.
type trained struct {
	tg     *core.TrainedGMM
	scores []float64
}

// prepareGrid runs the shared stages on the worker pool: traces are
// generated once per distinct (workload, seed, length) and models trained
// once per distinct training configuration.
func prepareGrid(o Options, scens []engine.Scenario, runner *engine.Runner) (*gridPrep, error) {
	// Stage 1: distinct traces, in first-use order.
	type traceKey struct {
		workload string
		seed     int64
		requests int
	}
	traceKeys := make([]traceKey, 0)
	traceIdx := make(map[traceKey]int)
	for _, s := range scens {
		k := traceKey{s.Workload, s.Seed, s.Requests}
		if _, ok := traceIdx[k]; !ok {
			traceIdx[k] = len(traceKeys)
			traceKeys = append(traceKeys, k)
		}
	}
	traces, err := engine.Map(runner, traceKeys, func(_ int, k traceKey) (trace.Trace, error) {
		g, err := workload.ByName(k.workload)
		if err != nil {
			return nil, err
		}
		return g.Generate(k.requests, k.seed), nil
	})
	if err != nil {
		return nil, err
	}
	traceFor := func(s engine.Scenario) trace.Trace {
		return traces[traceIdx[traceKey{s.Workload, s.Seed, s.Requests}]]
	}

	// Stage 2: distinct trainings (only for scenarios that need a model),
	// in first-use order.
	trainKeys := make([]trainKey, 0)
	trainScen := make(map[trainKey]engine.Scenario)
	trainIdx := make(map[trainKey]int)
	for _, s := range scens {
		if !needsGMM(s.Policy) {
			continue
		}
		k := scenarioKey(s)
		if _, ok := trainIdx[k]; !ok {
			trainIdx[k] = len(trainKeys)
			trainKeys = append(trainKeys, k)
			trainScen[k] = s
		}
	}
	// Each training also prescores its trace in blocks (see trained).
	models, err := engine.Map(runner, trainKeys, func(_ int, k trainKey) (trained, error) {
		s := trainScen[k]
		tr := traceFor(s)
		tg, err := core.Train(tr, o.configFor(s))
		if err != nil {
			return trained{}, fmt.Errorf("experiments: training %s: %w", s.Label(), err)
		}
		return trained{tg: tg, scores: tg.PrescoreTrace(tr)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &gridPrep{o: o, traceFor: traceFor, models: models, trainIdx: trainIdx}, nil
}

// run replays one scenario against the shared prep.
func (gp *gridPrep) run(s engine.Scenario) (ScenarioResult, error) {
	cfg := gp.o.configFor(s)
	tr := gp.traceFor(s)
	var pol cache.Policy
	var overhead time.Duration
	if mode, err := policy.ParseGMMMode(s.Policy); err == nil {
		m := gp.models[gp.trainIdx[scenarioKey(s)]]
		pol, overhead = m.tg.PolicyPrescored(mode, m.scores), cfg.GMMInference
	} else {
		var err error
		pol, overhead, err = PolicyByName(s.Policy, tr, nil, cfg)
		if err != nil {
			return ScenarioResult{}, err
		}
	}
	res, err := core.Run(tr, pol, overhead, cfg)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("experiments: %s: %w", s.Label(), err)
	}
	return ScenarioResult{Scenario: s, Result: res}, nil
}

// progressLine renders one scenario's progress output.
func progressLine(r ScenarioResult) string {
	return fmt.Sprintf("%-44s miss %6.2f%%  avg latency %v\n",
		r.Scenario.Label(), r.Result.MissRatePct(), r.Result.AvgLatency)
}

// RunGrid fans the scenario grid out over the run's worker pool (see
// prepareGrid); every scenario replay is an independent engine task. Results
// come back in grid order and, like every engine fan-out, are bit-identical
// at any worker count (progress lines included on successful runs). progress
// (which may be nil) receives one line per finished scenario, serialized
// into grid order. For sweeps too large to buffer, use RunGridStream.
func RunGrid(o Options, scens []engine.Scenario, progress io.Writer) ([]ScenarioResult, error) {
	runner := o.runner()
	gp, err := prepareGrid(o, scens, runner)
	if err != nil {
		return nil, err
	}
	em := engine.NewOrderedEmitter(progress)
	defer em.Flush()
	return engine.Map(runner, scens, func(i int, s engine.Scenario) (ScenarioResult, error) {
		res, err := gp.run(s)
		if err != nil {
			return ScenarioResult{}, err
		}
		em.Emit(i, progressLine(res))
		return res, nil
	})
}

// RunGridStream is RunGrid for sweeps that should not be buffered whole:
// each finished scenario is handed to the sink incrementally, in grid order
// (out-of-order completions wait in a bounded reorder window), and no result
// slice is retained. A sink error aborts the run like a failing scenario.
func RunGridStream(o Options, scens []engine.Scenario, sink ResultSink, progress io.Writer) error {
	runner := o.runner()
	gp, err := prepareGrid(o, scens, runner)
	if err != nil {
		return err
	}
	em := engine.NewOrderedEmitter(progress)
	defer em.Flush()
	ord := newOrderedSink(sink)
	return engine.ForEach(runner, scens, func(i int, s engine.Scenario) error {
		res, err := gp.run(s)
		if err != nil {
			return err
		}
		em.Emit(i, progressLine(res))
		return ord.emit(i, res)
	})
}

// RunGridFile is the CLI entry point shared by cmd/experiments and
// cmd/icgmm-sim: load a JSON grid declaration, expand it, and run it.
func RunGridFile(path string, o Options, progress io.Writer) ([]ScenarioResult, error) {
	g, err := engine.LoadGrid(path)
	if err != nil {
		return nil, err
	}
	scens, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return RunGrid(o, scens, progress)
}

// GridTable renders grid results with one row per scenario.
func GridTable(results []ScenarioResult) *stats.Table {
	t := stats.NewTable("Scenario grid",
		"Workload", "Policy", "Cache", "Seed", "Miss (%)", "Avg latency", "SSD reads", "SSD writes")
	for _, r := range results {
		t.AddRowStrings(
			r.Scenario.Workload,
			r.Scenario.Policy,
			fmt.Sprintf("%d MiB", r.Scenario.CacheMB),
			fmt.Sprint(r.Scenario.Seed),
			fmt.Sprintf("%.2f", r.Result.MissRatePct()),
			fmt.Sprint(r.Result.AvgLatency),
			fmt.Sprint(r.Result.SSDReads),
			fmt.Sprint(r.Result.SSDWrites),
		)
	}
	return t
}
