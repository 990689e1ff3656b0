// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results):
//
//	BenchmarkFig2*     — access-distribution data behind Fig. 2
//	BenchmarkFig6*     — the miss-rate comparison of Fig. 6
//	BenchmarkTable1*   — the average SSD access time of Table 1
//	BenchmarkTable2*   — the policy-engine latency/resource contrast of Table 2
//	BenchmarkAblation* — the design-choice ablations DESIGN.md calls out
//	BenchmarkOverlap   — the Sec. 4.3 dataflow-overlap effect
//
// Benchmarks report the paper-relevant quantities as custom metrics
// (miss percentage, average latency, reduction percentage) alongside the
// usual ns/op. Run with:
//
//	go test -bench=. -benchmem
//
// The full-resolution numbers in EXPERIMENTS.md come from
// cmd/experiments, which runs the same code at larger trace lengths.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/gmm"
	"repro/internal/linalg"
	"repro/internal/lstm"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchRequests keeps bench iterations affordable; cmd/experiments runs the
// same pipelines at 1M+ requests for the recorded numbers.
const benchRequests = 120_000

// benchConfig is the paper configuration with a reduced K so a full
// train+simulate cycle fits in a benchmark iteration.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Train = gmm.TrainConfig{K: 64, MaxIters: 25, Seed: 1, MaxSamples: 12000}
	// A short candidate ladder keeps the auto-threshold sweep (part of
	// Train) affordable inside a benchmark iteration.
	cfg.ThresholdCandidates = []float64{0, 0.05, 0.2}
	return cfg
}

// --- Fig. 2: memory access spatial and temporal distributions ---

func benchmarkFig2(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		spatial, temporal, err := experiments.Fig2Series(name, benchRequests, 1, 64, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if spatial.Len() == 0 || temporal.Len() == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFig2DLRM(b *testing.B)     { benchmarkFig2(b, "dlrm") }
func BenchmarkFig2Parsec(b *testing.B)   { benchmarkFig2(b, "parsec") }
func BenchmarkFig2Sysbench(b *testing.B) { benchmarkFig2(b, "sysbench") }

// --- Fig. 6: cache miss rate, LRU vs the three GMM strategies ---

func benchmarkFig6(b *testing.B, name string) {
	g, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr := g.Generate(benchRequests, 1)
	cfg := benchConfig()
	var last *core.Comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := core.Compare(name, tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = cmp
	}
	b.StopTimer()
	best := last.BestGMM()
	b.ReportMetric(last.LRU.MissRatePct(), "lru-miss-%")
	b.ReportMetric(best.MissRatePct(), "gmm-miss-%")
	b.ReportMetric(last.LRU.MissRatePct()-best.MissRatePct(), "decrease-pp")
	if best.Cache.MissRate() > last.LRU.Cache.MissRate() {
		b.Errorf("%s: best GMM miss %.2f%% worse than LRU %.2f%%",
			name, best.MissRatePct(), last.LRU.MissRatePct())
	}
}

func BenchmarkFig6Parsec(b *testing.B)   { benchmarkFig6(b, "parsec") }
func BenchmarkFig6Memtier(b *testing.B)  { benchmarkFig6(b, "memtier") }
func BenchmarkFig6Hashmap(b *testing.B)  { benchmarkFig6(b, "hashmap") }
func BenchmarkFig6Heap(b *testing.B)     { benchmarkFig6(b, "heap") }
func BenchmarkFig6Sysbench(b *testing.B) { benchmarkFig6(b, "sysbench") }
func BenchmarkFig6Stream(b *testing.B)   { benchmarkFig6(b, "stream") }
func BenchmarkFig6DLRM(b *testing.B)     { benchmarkFig6(b, "dlrm") }

// --- Table 1: average SSD access time, LRU vs GMM ---

func benchmarkTable1(b *testing.B, name string) {
	g, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr := g.Generate(benchRequests, 1)
	cfg := benchConfig()
	tg, err := core.Train(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var lru, gmmRes core.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lru, err = core.Run(tr, policy.NewLRU(), 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gmmRes, err = core.Run(tr, tg.Policy(policy.GMMCachingEviction), cfg.GMMInference, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lru.AvgLatency.Nanoseconds())/1000, "lru-us")
	b.ReportMetric(float64(gmmRes.AvgLatency.Nanoseconds())/1000, "gmm-us")
	red := 100 * (float64(lru.AvgLatency) - float64(gmmRes.AvgLatency)) / float64(lru.AvgLatency)
	b.ReportMetric(red, "reduction-%")
}

func BenchmarkTable1Parsec(b *testing.B)   { benchmarkTable1(b, "parsec") }
func BenchmarkTable1Memtier(b *testing.B)  { benchmarkTable1(b, "memtier") }
func BenchmarkTable1Hashmap(b *testing.B)  { benchmarkTable1(b, "hashmap") }
func BenchmarkTable1Heap(b *testing.B)     { benchmarkTable1(b, "heap") }
func BenchmarkTable1Sysbench(b *testing.B) { benchmarkTable1(b, "sysbench") }
func BenchmarkTable1Stream(b *testing.B)   { benchmarkTable1(b, "stream") }
func BenchmarkTable1DLRM(b *testing.B)     { benchmarkTable1(b, "dlrm") }

// --- Table 2: policy engine latency and resources, GMM vs LSTM ---

// BenchmarkTable2GMMInference measures one float-precision GMM inference at
// the paper's K = 256 — the software counterpart of the 3 us hardware
// number.
func BenchmarkTable2GMMInference(b *testing.B) {
	comps := make([]gmm.Component, 256)
	for i := range comps {
		comps[i] = gmm.Component{
			Weight: 1.0 / 256,
			Mean:   linalg.V2(float64(i)/256, float64(i%16)/16),
			Cov:    linalg.SymDiag(0.01, 0.01),
		}
	}
	m, err := gmm.New(comps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScorePageTime(0.5, 0.5)
	}
}

// BenchmarkTable2GMMQuantized measures the fixed-point weight-buffer path.
func BenchmarkTable2GMMQuantized(b *testing.B) {
	comps := make([]gmm.Component, 256)
	for i := range comps {
		comps[i] = gmm.Component{
			Weight: 1.0 / 256,
			Mean:   linalg.V2(float64(i)/256, float64(i%16)/16),
			Cov:    linalg.SymDiag(0.01, 0.01),
		}
	}
	m, err := gmm.New(comps)
	if err != nil {
		b.Fatal(err)
	}
	q, _ := gmm.Quantize(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScorePageTime(0.5, 0.5)
	}
}

// BenchmarkTable2LSTMInference measures one inference of the paper's LSTM
// baseline (3 layers, hidden 128, sequence 32). The ns/op ratio against
// BenchmarkTable2GMMInference reproduces the Table 2 contrast in software.
func BenchmarkTable2LSTMInference(b *testing.B) {
	n, err := lstm.New(lstm.PaperBaseline(), 1)
	if err != nil {
		b.Fatal(err)
	}
	seq := make([][]float64, 32)
	for i := range seq {
		seq[i] = []float64{float64(i) / 32, 0.5}
	}
	s := n.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Forward(seq, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2HardwareModel evaluates the calibrated FPGA cost models
// and reports the Table 2 ratios as metrics.
func BenchmarkTable2HardwareModel(b *testing.B) {
	var cmp fpga.EngineComparison
	for i := 0; i < b.N; i++ {
		cmp = fpga.CompareEngines()
	}
	b.ReportMetric(cmp.Speedup, "speedup-x")
	b.ReportMetric(cmp.BRAMRatio, "bram-ratio-x")
}

// --- Sec. 5.3: dataflow overlap of GMM inference with SSD access ---

func BenchmarkOverlap(b *testing.B) {
	events := make([]fpga.AccessEvent, 20000)
	for i := range events {
		events[i] = fpga.AccessEvent{Hit: i%5 != 0} // 20% misses
	}
	on := fpga.DefaultDataflowConfig()
	off := fpga.DefaultDataflowConfig()
	off.Overlap = false
	var tOn, tOff int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlOn, err := fpga.SimulateDataflow(events, on)
		if err != nil {
			b.Fatal(err)
		}
		tlOff, err := fpga.SimulateDataflow(events, off)
		if err != nil {
			b.Fatal(err)
		}
		tOn, tOff = tlOn.TotalCycles, tlOff.TotalCycles
	}
	b.StopTimer()
	b.ReportMetric(float64(tOff-tOn)/float64(tOff)*100, "overlap-saving-%")
	if tOn >= tOff {
		b.Error("overlap did not reduce total cycles")
	}
}

// --- Ablations (DESIGN.md Sec. 5) ---

// BenchmarkAblationK sweeps the mixture size on one benchmark.
func BenchmarkAblationK(b *testing.B) {
	tr := workload.NewHashmap().Generate(benchRequests, 1)
	for _, k := range []int{16, 64, 256} {
		b.Run(map[int]string{16: "K16", 64: "K64", 256: "K256"}[k], func(b *testing.B) {
			cfg := benchConfig()
			cfg.Train.K = k
			var miss float64
			for i := 0; i < b.N; i++ {
				cmp, err := core.Compare("hashmap", tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				miss = cmp.BestGMM().MissRatePct()
			}
			b.ReportMetric(miss, "gmm-miss-%")
		})
	}
}

// BenchmarkAblation1DGMM compares spatial-only scoring against the 2-D
// model (Sec. 2.3's motivation for the temporal dimension).
func BenchmarkAblation1DGMM(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Requests = benchRequests
	o.Config = benchConfig()
	o.Benchmarks = []string{"memtier"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation1D(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThreshold sweeps the admission quantile.
func BenchmarkAblationThreshold(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Requests = benchRequests
	o.Config = benchConfig()
	o.Config.AutoThreshold = false
	o.Benchmarks = []string{"dlrm"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationThreshold(o, []float64{0, 0.05, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindow sweeps the Algorithm 1 parameters.
func BenchmarkAblationWindow(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Requests = benchRequests
	o.Config = benchConfig()
	o.Benchmarks = []string{"parsec"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWindow(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine: sharded experiment fan-out ---

// benchmarkRunAll measures a full seven-benchmark RunAll grid at the given
// worker count. The ratio BenchmarkRunAllSequential / BenchmarkRunAllWorkers8
// is the engine's wall-clock speedup; results are bit-identical at any
// worker count (see TestRunAllDeterministicAcrossWorkers).
func benchmarkRunAll(b *testing.B, workers int) {
	o := experiments.DefaultOptions()
	o.Requests = 60_000
	o.Config = benchConfig()
	o.Config.Train.K = 16
	o.Config.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmps, err := experiments.RunAll(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(cmps) != 7 {
			b.Fatalf("comparisons = %d, want 7", len(cmps))
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchmarkRunAll(b, 1) }
func BenchmarkRunAllWorkers8(b *testing.B)   { benchmarkRunAll(b, 8) }

// --- Component micro-benchmarks ---

// BenchmarkEMTraining measures one full EM fit at the bench configuration.
func BenchmarkEMTraining(b *testing.B) {
	tr := workload.NewParsec().Generate(benchRequests, 1)
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gmm.FitTrace(tr, cfg.Transform, cfg.Train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the raw cache lookup/replacement path.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := newBenchCache()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%50000), i%4 == 0)
	}
}

// BenchmarkTracePreprocess measures the Sec. 3.1 pipeline.
func BenchmarkTracePreprocess(b *testing.B) {
	tr := workload.NewHeap().Generate(benchRequests, 1)
	cfg := trace.DefaultTransformConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := trace.Preprocess(tr, cfg); len(s) == 0 {
			b.Fatal("empty preprocess output")
		}
	}
}
