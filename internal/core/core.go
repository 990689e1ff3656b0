// Package core is the offline evaluation harness of the ICGMM device:
// requests hit the device-side DRAM cache managed by a policy engine, and
// misses pay the SSD penalty, with the GMM inference overlapped against the
// SSD access by the dataflow architecture (Sec. 4.3).
//
// The package provides offline GMM training on a trace (the Sec. 3 flow),
// the closed-loop latency simulator behind Table 1 (Run, on the paper's
// measured end-to-end constants), and the policy comparison harness behind
// Fig. 6.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/gmm"
	"repro/internal/policy"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config gathers every knob of the end-to-end system. Defaults reproduce
// the paper's case study (Sec. 5.1).
type Config struct {
	// Cache is the DRAM cache geometry: 64 MiB, 4 KiB blocks, 8-way.
	Cache cache.Config
	// SSD is the emulated storage profile: TLC, 75 us read / 900 us write.
	SSD ssd.Profile
	// HitLatency is the measured end-to-end DRAM cache hit time (1 us).
	HitLatency time.Duration
	// GMMInference is the measured policy-engine inference time (3 us).
	GMMInference time.Duration
	// Overlap enables the dataflow overlap of GMM inference with SSD
	// access (Sec. 4.3); disabling it serializes the two, the
	// configuration the overlap ablation measures.
	Overlap bool
	// Transform holds the Sec. 3.1 trace-processing parameters.
	Transform trace.TransformConfig
	// Train holds the EM training parameters (K = 256 in the paper).
	Train gmm.TrainConfig
	// ThresholdPct is the admission-threshold quantile over training-set
	// scores (see policy.CalibrateThreshold). It is the starting point;
	// with AutoThreshold set, Train sweeps ThresholdCandidates and keeps
	// the quantile that minimizes simulated miss rate on a calibration
	// slice of the trace (the paper picks its threshold empirically the
	// same way it picks the Algorithm 1 window sizes).
	ThresholdPct float64
	// AutoThreshold enables the empirical threshold sweep.
	AutoThreshold bool
	// ThresholdCandidates are the quantiles the sweep tries; empty uses a
	// default ladder.
	ThresholdCandidates []float64
	// CalibrationRequests bounds the calibration slice length.
	CalibrationRequests int
	// Quantized runs inference through the fixed-point weight-buffer model
	// instead of float64, as the hardware does.
	Quantized bool
	// Workers bounds the harness parallelism (policy comparisons, threshold
	// sweeps): 0 means one worker per core, 1 forces sequential execution.
	// It affects wall-clock only — results are bit-identical at any value.
	Workers int
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Cache:         cache.DefaultConfig(),
		SSD:           ssd.TLC(),
		HitLatency:    time.Microsecond,
		GMMInference:  3 * time.Microsecond,
		Overlap:       true,
		Transform:     trace.DefaultTransformConfig(),
		Train:         gmm.DefaultTrainConfig(),
		ThresholdPct:  0.02,
		AutoThreshold: true,
	}
}

// defaultThresholdCandidates is the quantile ladder the empirical sweep
// tries: from "admit everything" to "admit only the hottest half".
var defaultThresholdCandidates = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5}

// runner builds the task runner for this configuration's worker bound.
func (c Config) runner() *engine.Runner { return engine.NewRunner(c.Workers) }

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.SSD.Validate(); err != nil {
		return err
	}
	if c.HitLatency <= 0 {
		return errors.New("core: non-positive hit latency")
	}
	if c.GMMInference < 0 {
		return errors.New("core: negative GMM inference latency")
	}
	if c.ThresholdPct < 0 || c.ThresholdPct > 1 {
		return errors.New("core: threshold percentile outside [0,1]")
	}
	return nil
}

// TrainedGMM bundles everything a deployed policy engine needs: the model,
// the coordinate normalizer, the calibrated admission threshold, and the
// windowing parameters that must match between training and inference.
type TrainedGMM struct {
	Result    *gmm.TrainResult
	Quantized *gmm.QuantizedModel
	// QuantReport records how faithfully the weight-buffer quantization
	// represented the model (clamp count, worst representable error).
	QuantReport gmm.QuantReport
	Norm        trace.Normalizer
	Threshold   float64
	Transform   trace.TransformConfig
	useQuant    bool
}

// Train runs the offline Sec. 3 flow on a trace: preprocess, fit the GMM
// with EM, quantize for the weight buffer, and calibrate the admission
// threshold on the training scores.
func Train(tr trace.Trace, cfg Config) (*TrainedGMM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tcfg := cfg.Train
	if tcfg.Workers == 0 {
		// EM's E-step shards over the same worker bound as the harness
		// fan-outs; both zero means one worker per core either way.
		tcfg.Workers = cfg.Workers
	}
	res, norm, err := gmm.FitTrace(tr, cfg.Transform, tcfg)
	if err != nil {
		return nil, fmt.Errorf("core: training GMM: %w", err)
	}
	samples := norm.ApplyAll(trace.Preprocess(tr, cfg.Transform))
	quant, qrep := gmm.Quantize(res.Model)
	if cfg.Quantized && qrep.Saturated > 0 {
		return nil, fmt.Errorf("core: quantized inference requested but %d model constants saturate Q16.16", qrep.Saturated)
	}
	var scorer policy.Scorer = res.Model
	if cfg.Quantized {
		scorer = quant
	}
	tg := &TrainedGMM{
		Result:      res,
		Quantized:   quant,
		QuantReport: qrep,
		Norm:        norm,
		Transform:   cfg.Transform,
		useQuant:    cfg.Quantized,
	}
	tg.Threshold = policy.CalibrateThreshold(scorer, samples, cfg.ThresholdPct)
	if cfg.AutoThreshold {
		if th, err := sweepThreshold(tr, tg, samples, cfg); err == nil {
			tg.Threshold = th
		} else {
			return nil, err
		}
	}
	return tg, nil
}

// CalibrateThreshold re-runs the empirical admission-threshold sweep for a
// TrainedGMM against a (possibly different) trace — the path for models
// loaded from disk, where Train's in-line sweep never ran. The bundle's
// Threshold is updated in place and also returned.
func CalibrateThreshold(tr trace.Trace, tg *TrainedGMM, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	samples := tg.Norm.ApplyAll(trace.Preprocess(tr, tg.Transform))
	th, err := sweepThreshold(tr, tg, samples, cfg)
	if err != nil {
		return 0, err
	}
	tg.Threshold = th
	return th, nil
}

// sweepThreshold empirically selects the admission threshold: for each
// candidate quantile it simulates the combined caching+eviction strategy on
// a calibration slice of the trace and keeps the quantile with the lowest
// miss rate. Candidates whose thresholds coincide are simulated once.
//
// The candidate simulations share one batched scoring pass: per-access GMM
// scores depend only on the trace and the model, never on the threshold, so
// they are precomputed in blocks and every candidate replay reuses them. The
// surviving candidate replays then run in parallel on cfg.Workers workers;
// the selection scan stays sequential in candidate order, so the sweep picks
// the same threshold as the original inline loop at any worker count.
func sweepThreshold(tr trace.Trace, tg *TrainedGMM, samples []trace.Sample, cfg Config) (float64, error) {
	cands := cfg.ThresholdCandidates
	if len(cands) == 0 {
		cands = defaultThresholdCandidates
	}
	// The sweep simulates on the whole trace by default: a contiguous
	// sub-window would see only one phase of phased workloads and overfit
	// the threshold to it. CalibrationRequests > 0 bounds the cost for
	// very long traces.
	slice := tr
	if limit := cfg.CalibrationRequests; limit > 0 && len(slice) > limit {
		start := (len(slice) - limit) / 2
		slice = slice[start : start+limit]
	}
	// Threshold 0 admits everything (densities are non-negative), making
	// the combined strategy degrade gracefully to eviction-only when
	// admission filtering cannot help this trace.
	thresholds := append([]float64{0}, policy.CalibrateThresholds(tg.Scorer(), samples, cands)...)
	seen := make(map[float64]bool, len(thresholds))
	unique := thresholds[:0]
	for _, th := range thresholds {
		if !seen[th] {
			seen[th] = true
			unique = append(unique, th)
		}
	}
	scores := tg.PrescoreTrace(slice)
	results, err := engine.Map(cfg.runner(), unique, func(_ int, th float64) (RunResult, error) {
		pol := tg.policyWithScores(policy.GMMCachingEviction, th, scores)
		res, err := Run(slice, pol, cfg.GMMInference, cfg)
		if err != nil {
			return RunResult{}, fmt.Errorf("core: threshold sweep: %w", err)
		}
		return res, nil
	})
	if err != nil {
		return 0, err
	}
	bestTh := tg.Threshold
	bestMiss := 2.0
	for i, res := range results {
		if mr := res.Cache.MissRate(); mr < bestMiss {
			bestMiss = mr
			bestTh = unique[i]
		}
	}
	return bestTh, nil
}

// Scorer returns the inference engine the deployment uses (float or
// quantized per the training config).
func (tg *TrainedGMM) Scorer() policy.Scorer {
	if tg.useQuant {
		return tg.Quantized
	}
	return tg.Result.Model
}

// Policy builds a fresh policy engine for the given Fig. 6 strategy. Each
// call returns an independent engine (with its own score tables and
// scratch), so one trained model can drive several simulations.
func (tg *TrainedGMM) Policy(mode policy.GMMMode) *policy.GMM {
	return tg.policyWithScores(mode, tg.Threshold, nil)
}

// PolicyPrescored is Policy with precomputed per-access scores from
// PrescoreTrace: the replay skips live inference and reads scores by access
// index. One prescoring pass serves every mode replayed over the same
// trace.
func (tg *TrainedGMM) PolicyPrescored(mode policy.GMMMode, scores []float64) *policy.GMM {
	return tg.policyWithScores(mode, tg.Threshold, scores)
}

// policyWithScores builds a policy engine with an explicit threshold and
// optional precomputed per-access scores (see PrescoreTrace).
func (tg *TrainedGMM) policyWithScores(mode policy.GMMMode, threshold float64, scores []float64) *policy.GMM {
	return policy.NewGMM(policy.GMMConfig{
		Scorer:     tg.Scorer(),
		Normalizer: tg.Norm,
		Transform:  tg.Transform,
		Threshold:  threshold,
		Mode:       mode,
		Scores:     scores,
	})
}

// PrescoreTrace computes the per-access GMM score for every request of the
// trace in one batch, at the Algorithm 1 timestamp of each request's index —
// the arrival index a live policy engine's cache numbers it with. The
// returned slice feeds policy replays via GMMConfig.Scores, replacing one
// inference call per miss with one batch; batched scoring is bit-identical
// to live scoring, so replay results do not change.
//
// The scores are threshold- and mode-independent, so one prescoring pass
// serves every policy variant replayed over the same trace.
func (tg *TrainedGMM) PrescoreTrace(tr trace.Trace) []float64 {
	tcfg := tg.Transform.Sanitized()
	pages := make([]float64, len(tr))
	times := make([]float64, len(tr))
	for i, rec := range tr {
		ts := trace.Timestamp(uint64(i), tcfg.LenWindow, tcfg.LenAccessShot)
		pages[i], times[i] = tg.Norm.ApplyPageTime(rec.Page(), ts)
	}
	scores := make([]float64, len(tr))
	var scratch gmm.Scratch
	tg.Scorer().ScorePageTimeBatchScratch(pages, times, scores, &scratch)
	return scores
}

// RunResult reports one simulation.
type RunResult struct {
	Policy string
	Cache  cache.Stats
	// AvgLatency is the mean per-request memory access latency, the
	// Table 1 metric.
	AvgLatency time.Duration
	// Latency summarizes the full latency distribution.
	Latency stats.Summary
	// SSDReads/SSDWrites count device operations (fills and write-backs).
	SSDReads, SSDWrites uint64
	// EngineBusy is the total time the policy engine spent on inference
	// that was NOT hidden by SSD access (0 with full overlap).
	EngineBusy time.Duration
}

// MissRatePct returns the miss rate in percent, the Fig. 6 unit.
func (r RunResult) MissRatePct() float64 { return 100 * r.Cache.MissRate() }

// Run drives the trace through a cache with the given policy engine and the
// paper's latency model:
//
//	hit                  -> HitLatency (1 us measured on board)
//	miss, admitted       -> SSD read (75 us) + SSD write-back (900 us) when
//	                        the victim block is dirty (975 us total penalty)
//	miss, bypassed read  -> SSD read straight to the host (75 us)
//	miss, bypassed write -> SSD program (900 us)
//
// policyOverhead is the engine's per-miss inference latency (3 us for the
// GMM, 0 for LRU); with cfg.Overlap it is hidden behind the SSD access
// (Sec. 4.3) and only any excess over the SSD latency is visible.
func Run(tr trace.Trace, pol cache.Policy, policyOverhead time.Duration, cfg Config) (RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	c, err := cache.New(cfg.Cache, pol)
	if err != nil {
		return RunResult{}, err
	}
	dev, err := ssd.New(cfg.SSD, 8)
	if err != nil {
		return RunResult{}, err
	}
	hist := stats.DefaultLatencyHistogram()
	hitNs := cfg.HitLatency.Nanoseconds()
	engNs := policyOverhead.Nanoseconds()
	var now int64
	var engineBusy int64

	for _, rec := range tr {
		page := rec.Page()
		write := rec.Op == trace.Write
		res := c.Access(page, write)

		var lat int64
		switch {
		case res.Hit:
			lat = hitNs
		case res.Admitted:
			// Fill from SSD (write-allocate: even store misses first read
			// the page into the cache).
			done := dev.Access(ssd.OpRead, page, now)
			lat = done - now
			if res.WriteBack {
				wbDone := dev.Access(ssd.OpWrite, res.VictimPage, now)
				lat += wbDone - now
			}
		case write:
			// Bypassed store: program the SSD directly.
			done := dev.Access(ssd.OpWrite, page, now)
			lat = done - now
		default:
			// Bypassed load: SSD to host without caching.
			done := dev.Access(ssd.OpRead, page, now)
			lat = done - now
		}

		if !res.Hit && engNs > 0 {
			if cfg.Overlap {
				// The dataflow triggers the policy engine and the SSD
				// access concurrently; only inference beyond the SSD
				// latency shows up.
				if engNs > lat {
					engineBusy += engNs - lat
					lat = engNs
				}
			} else {
				engineBusy += engNs
				lat += engNs
			}
		}

		hist.Observe(lat)
		now += lat
	}

	devStats := dev.Stats()
	return RunResult{
		Policy:     pol.Name(),
		Cache:      c.Stats(),
		AvgLatency: time.Duration(int64(hist.Mean())),
		Latency:    hist.Summarize(),
		SSDReads:   devStats.Reads,
		SSDWrites:  devStats.Writes,
		EngineBusy: time.Duration(engineBusy),
	}, nil
}

// Comparison holds the Fig. 6 policy sweep for one benchmark: the LRU
// baseline and the three GMM strategies.
type Comparison struct {
	Benchmark string
	LRU       RunResult
	Caching   RunResult
	Eviction  RunResult
	Combined  RunResult
}

// BestGMM returns the GMM strategy with the lowest miss rate, the dashed
// bar Fig. 6 highlights per benchmark.
func (c Comparison) BestGMM() RunResult {
	best := c.Caching
	if c.Eviction.Cache.MissRate() < best.Cache.MissRate() {
		best = c.Eviction
	}
	if c.Combined.Cache.MissRate() < best.Cache.MissRate() {
		best = c.Combined
	}
	return best
}

// LatencyReductionPct returns the Table 1 metric: percent reduction of the
// best GMM strategy's average latency relative to LRU.
func (c Comparison) LatencyReductionPct() float64 {
	lru := float64(c.LRU.AvgLatency)
	if lru == 0 {
		return 0
	}
	return 100 * (lru - float64(c.BestGMM().AvgLatency)) / lru
}

// Compare trains a GMM on the trace and runs the four Fig. 6 policies over
// it with the paper's latency model.
func Compare(benchmark string, tr trace.Trace, cfg Config) (*Comparison, error) {
	tg, err := Train(tr, cfg)
	if err != nil {
		return nil, err
	}
	return CompareTrained(benchmark, tr, tg, cfg)
}

// CompareTrained is Compare with a pre-trained model, so callers can reuse
// one training run across configurations. The four policy replays are
// independent simulations, so they run as engine tasks on cfg.Workers
// workers, and the three GMM replays share one batched prescoring pass over
// the trace instead of scoring per miss.
func CompareTrained(benchmark string, tr trace.Trace, tg *TrainedGMM, cfg Config) (*Comparison, error) {
	scores := tg.PrescoreTrace(tr)
	tasks := []func() (RunResult, error){
		func() (RunResult, error) { return Run(tr, policy.NewLRU(), 0, cfg) },
		func() (RunResult, error) {
			return Run(tr, tg.policyWithScores(policy.GMMCachingOnly, tg.Threshold, scores), cfg.GMMInference, cfg)
		},
		func() (RunResult, error) {
			return Run(tr, tg.policyWithScores(policy.GMMEvictionOnly, tg.Threshold, scores), cfg.GMMInference, cfg)
		},
		func() (RunResult, error) {
			return Run(tr, tg.policyWithScores(policy.GMMCachingEviction, tg.Threshold, scores), cfg.GMMInference, cfg)
		},
	}
	results, err := engine.Map(cfg.runner(), tasks, func(_ int, task func() (RunResult, error)) (RunResult, error) {
		return task()
	})
	if err != nil {
		return nil, err
	}
	return &Comparison{
		Benchmark: benchmark,
		LRU:       results[0],
		Caching:   results[1],
		Eviction:  results[2],
		Combined:  results[3],
	}, nil
}
