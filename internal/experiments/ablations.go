package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ablationBenchmarks picks a representative subset when the caller has not
// restricted the benchmark set: one low-miss (parsec), one Zipf (memtier)
// and one scan-heavy (stream) workload keep the sweeps affordable.
func (o Options) ablationBenchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return []string{"parsec", "memtier", "stream"}
}

// sweepCells evaluates a benchmarks × variants grid of experiment cells on
// the run's worker pool and returns one row of rendered cells per benchmark,
// in grid order. Each benchmark's trace is generated once and shared by its
// row of cells. Each cell is an independent engine task, so a sweep scales
// with cores while the assembled table stays byte-identical to a sequential
// double loop (errors included: the lowest-index failing cell wins).
func sweepCells(o Options, benches []string, nCols int, cellFn func(bench string, tr trace.Trace, col int) (string, error)) ([][]string, error) {
	traces, err := engine.Map(o.runner(), benches, func(_ int, name string) (trace.Trace, error) {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		return g.Generate(o.Requests, o.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	type cellIdx struct{ bi, ci int }
	cells := make([]cellIdx, 0, len(benches)*nCols)
	for bi := range benches {
		for ci := 0; ci < nCols; ci++ {
			cells = append(cells, cellIdx{bi, ci})
		}
	}
	vals, err := engine.Map(o.runner(), cells, func(_ int, c cellIdx) (string, error) {
		return cellFn(benches[c.bi], traces[c.bi], c.ci)
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(benches))
	for bi := range benches {
		rows[bi] = vals[bi*nCols : (bi+1)*nCols]
	}
	return rows, nil
}

// AblationK sweeps the number of GMM components (the paper deploys K = 256)
// and reports the best-strategy miss rate per benchmark.
func AblationK(o Options, ks []int) (*stats.Table, error) {
	t := stats.NewTable("Ablation — GMM component count K vs best miss rate (%)",
		append([]string{"Benchmark"}, intHeaders("K=", ks)...)...)
	benches := o.ablationBenchmarks()
	rows, err := sweepCells(o, benches, len(ks), func(name string, tr trace.Trace, ci int) (string, error) {
		cfg := o.Config
		cfg.Train.K = ks[ci]
		cmp, err := core.Compare(name, tr, cfg)
		if err != nil {
			return "", fmt.Errorf("K=%d: %w", ks[ci], err)
		}
		return fmt.Sprintf("%.2f", cmp.BestGMM().MissRatePct()), nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range benches {
		t.AddRowStrings(append([]string{name}, rows[bi]...)...)
	}
	return t, nil
}

// Ablation1D compares the full 2-D GMM against a spatial-only variant
// (timestamp dimension zeroed out), quantifying the paper's Sec. 2.3 claim
// that temporal information is required.
func Ablation1D(o Options) (*stats.Table, error) {
	t := stats.NewTable("Ablation — 2-D GMM vs spatial-only (1-D) GMM, miss rate (%)",
		"Benchmark", "LRU", "1D GMM", "2D GMM")
	benches := o.ablationBenchmarks()
	rows, err := engine.Map(o.runner(), benches, func(_ int, name string) ([]string, error) {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Generate(o.Requests, o.Seed)

		cmp2d, err := core.Compare(name, tr, o.Config)
		if err != nil {
			return nil, err
		}

		// 1-D variant: train and score with every timestamp collapsed to
		// zero, leaving only the spatial dimension informative.
		samples := trace.Preprocess(tr, o.Config.Transform)
		for i := range samples {
			samples[i].Timestamp = 0
		}
		norm := trace.FitNormalizer(samples)
		res, err := gmm.Fit(norm.ApplyAll(samples), o.Config.Train)
		if err != nil {
			return nil, err
		}
		th := policy.CalibrateThreshold(res.Model, norm.ApplyAll(samples), o.Config.ThresholdPct)
		best := cmp2d.LRU
		first := true
		for _, mode := range []policy.GMMMode{policy.GMMCachingOnly, policy.GMMEvictionOnly, policy.GMMCachingEviction} {
			p := policy.NewGMM(policy.GMMConfig{
				Scorer:     spatialOnly{res.Model},
				Normalizer: norm,
				Transform:  o.Config.Transform,
				Threshold:  th,
				Mode:       mode,
			})
			r, err := core.Run(tr, p, o.Config.GMMInference, o.Config)
			if err != nil {
				return nil, err
			}
			if first || r.Cache.MissRate() < best.Cache.MissRate() {
				best = r
				first = false
			}
		}
		return []string{name,
			fmt.Sprintf("%.2f", cmp2d.LRU.MissRatePct()),
			fmt.Sprintf("%.2f", best.MissRatePct()),
			fmt.Sprintf("%.2f", cmp2d.BestGMM().MissRatePct()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRowStrings(row...)
	}
	return t, nil
}

// spatialOnly wraps a model and scores every point at normalized time 0,
// discarding the temporal coordinate, so the policy effectively runs a 1-D
// GMM.
type spatialOnly struct{ m *gmm.Model }

func (w spatialOnly) ScorePageTimeBatchScratch(pages, _, dst []float64, s *gmm.Scratch) {
	var zero [1]float64
	for i := range pages {
		w.m.ScorePageTimeBatchScratch(pages[i:i+1], zero[:], dst[i:i+1], s)
	}
}

// AblationThreshold sweeps the admission-threshold quantile.
func AblationThreshold(o Options, pcts []float64) (*stats.Table, error) {
	t := stats.NewTable("Ablation — admission threshold quantile vs combined-strategy miss rate (%)",
		append([]string{"Benchmark"}, floatHeaders("q=", pcts)...)...)
	benches := o.ablationBenchmarks()
	rows, err := sweepCells(o, benches, len(pcts), func(name string, tr trace.Trace, ci int) (string, error) {
		cfg := o.Config
		cfg.ThresholdPct = pcts[ci]
		// The sweep's whole point is to pin the quantile per column; the
		// empirical auto-sweep would overwrite it and flatten every column
		// to the same number.
		cfg.AutoThreshold = false
		tg, err := core.Train(tr, cfg)
		if err != nil {
			return "", err
		}
		r, err := core.Run(tr, tg.Policy(policy.GMMCachingEviction), cfg.GMMInference, cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.2f", 100*r.Cache.MissRate()), nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range benches {
		t.AddRowStrings(append([]string{name}, rows[bi]...)...)
	}
	return t, nil
}

// AblationWindow sweeps the Algorithm 1 parameters around the paper's
// empirical choice (len_window = 32, len_access_shot = 10000).
func AblationWindow(o Options) (*stats.Table, error) {
	configs := []trace.TransformConfig{
		{LenWindow: 8, LenAccessShot: 10000, WarmupFrac: 0.2, TailFrac: 0.1},
		{LenWindow: 32, LenAccessShot: 10000, WarmupFrac: 0.2, TailFrac: 0.1},
		{LenWindow: 128, LenAccessShot: 10000, WarmupFrac: 0.2, TailFrac: 0.1},
		{LenWindow: 32, LenAccessShot: 1000, WarmupFrac: 0.2, TailFrac: 0.1},
		{LenWindow: 32, LenAccessShot: 100000, WarmupFrac: 0.2, TailFrac: 0.1},
	}
	headers := []string{"Benchmark"}
	for _, c := range configs {
		headers = append(headers, fmt.Sprintf("w=%d shot=%d", c.LenWindow, c.LenAccessShot))
	}
	t := stats.NewTable("Ablation — Algorithm 1 windowing vs best miss rate (%)", headers...)
	benches := o.ablationBenchmarks()
	rows, err := sweepCells(o, benches, len(configs), func(name string, tr trace.Trace, ci int) (string, error) {
		cfg := o.Config
		cfg.Transform = configs[ci]
		cmp, err := core.Compare(name, tr, cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.2f", cmp.BestGMM().MissRatePct()), nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range benches {
		t.AddRowStrings(append([]string{name}, rows[bi]...)...)
	}
	return t, nil
}

// OverlapAblation quantifies the dataflow architecture's contribution
// (Sec. 4.3): average latency with the GMM inference overlapped against the
// SSD access versus serialized after it.
func OverlapAblation(o Options) (*stats.Table, error) {
	t := stats.NewTable("Ablation — dataflow overlap of GMM inference with SSD access",
		"Benchmark", "Overlapped avg", "Serialized avg", "Penalty (%)")
	benches := o.ablationBenchmarks()
	rows, err := engine.Map(o.runner(), benches, func(_ int, name string) ([]string, error) {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Generate(o.Requests, o.Seed)
		tg, err := core.Train(tr, o.Config)
		if err != nil {
			return nil, err
		}
		cfgOn := o.Config
		cfgOn.Overlap = true
		on, err := core.Run(tr, tg.Policy(policy.GMMCachingEviction), cfgOn.GMMInference, cfgOn)
		if err != nil {
			return nil, err
		}
		cfgOff := o.Config
		cfgOff.Overlap = false
		off, err := core.Run(tr, tg.Policy(policy.GMMCachingEviction), cfgOff.GMMInference, cfgOff)
		if err != nil {
			return nil, err
		}
		penalty := 0.0
		if on.AvgLatency > 0 {
			penalty = 100 * (float64(off.AvgLatency) - float64(on.AvgLatency)) / float64(on.AvgLatency)
		}
		return []string{name,
			fmt.Sprint(on.AvgLatency), fmt.Sprint(off.AvgLatency),
			fmt.Sprintf("%.2f", penalty)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRowStrings(row...)
	}
	return t, nil
}

func intHeaders(prefix string, vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%s%d", prefix, v)
	}
	return out
}

func floatHeaders(prefix string, vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%s%.2f", prefix, v)
	}
	return out
}
