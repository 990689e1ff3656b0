package main

import (
	"time"

	"repro/internal/serve"
)

// runTraced is the traced run of a workload: the set-up replay, a timed
// TrainBundleFromSpec and Open, one uninterrupted pass of the serve loop
// with a span per call, and the hot-path replay on the trained bundle. It
// reports the per-layer metrics; untracedLoop is the untraced runs' median
// loop time in reference ns, for the tracing overhead.
func runTraced(w benchWorkload, seed int64, untracedLoop float64) runResult {
	res := runResult{Workload: w.name, Seed: seed, Traced: true}
	fail := func(err error) runResult {
		res.Err = err.Error()
		return res
	}
	if err := checkReplayable(w.spec); err != nil {
		return fail(err)
	}
	cfg, err := w.spec.Config()
	if err != nil {
		return fail(err)
	}
	tr := newTracer(w.name)
	res.tracer = tr

	shadowNet, shadowNorm, err := replaySetup(w.spec, cfg, tr)
	if err != nil {
		return fail(err)
	}
	id := tr.begin("serve.train", -1)
	bundle, err := serve.TrainBundleFromSpec(w.spec)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	id = tr.begin("serve.open", -1)
	sess, err := serve.Open(w.spec, nil)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	l, err := serveLoop(w, sess, tr, false)
	if err != nil {
		return fail(err)
	}
	res.Sim = l.sim
	rr, err := replayHotPath(w, cfg, bundle, shadowNet, shadowNorm, tr)
	if err != nil {
		return fail(err)
	}
	if err := checkReplay(w.spec, l.partOps, rr); err != nil {
		return fail(err)
	}
	res.Layers = layerMetrics(tr, l, rr, untracedLoop)
	return res
}

// layerMetrics derives the per-layer metrics from the traced run's spans,
// the loop's resource usage, the replay and the final snapshot. Times are
// at reference speed like the end-to-end metrics: spans on the compute
// axis, and CPU times scaled by the loop's reference-to-wall ratio.
func layerMetrics(tr *tracer, l *loop, rr replayResult, untracedLoop float64) map[string]float64 {
	axis := clock.axis(phiCompute)
	tr = tr.onAxis(axis)
	loopRef := loopTime(l, axis, clock.axis(phiSummarize))
	scale := loopRef / float64(l.wall)
	self := tr.selfTimes()
	total := func(name string) time.Duration {
		var d time.Duration
		for _, x := range tr.durations(name, "") {
			d += time.Duration(x)
		}
		return d
	}
	// medianMs is 0 when no span of that kind exists (a workload without
	// refreshes has no refresh step).
	medianMs := func(name, kind string) float64 {
		if d := tr.durations(name, kind); len(d) > 0 {
			return median(d) / 1e6
		}
		return 0
	}
	perOp := func(name string) float64 { return float64(self[name]) / float64(rr.ops) }
	// The replayed layers are the replay loop's children; their sum is the
	// single-threaded CPU the loop's layers cost.
	replayed := total("replay.loop") - self["replay.loop"]
	cpu := time.Duration(float64(l.use.cpu) * scale)
	s := l.sim
	m := map[string]float64{
		"serve.train_s":           total("serve.train").Seconds(),
		"serve.open_other_s":      (total("serve.open") - total("serve.train")).Seconds(),
		"serve.step_plain_ms_p50": medianMs("serve.step", "plain"),
		"serve.step_p99_ms":       percentile(tr.durations("serve.step", ""), 99) / 1e6,
		"serve.step_refresh_ms":   medianMs("serve.step", "refresh"),
		"serve.step_churn_ms":     medianMs("serve.step", "churn"),
		"serve.metrics_ms_sum":    float64(total("serve.metrics")) / 1e6,
		"serve.checkpoint_ms":     float64(total("serve.checkpoint")) / 1e6,
		"serve.resume_ms":         float64(total("serve.resume")) / 1e6,
		"serve.close_ms":          float64(total("serve.close")) / 1e6,
		"serve.loop_cpu_s":        cpu.Seconds(),
		"serve.parallelism":       l.use.cpu.Seconds() / l.wall.Seconds(),
		"serve.other_cpu_s":       (cpu - replayed).Seconds(),

		"workload.warm_trace_s": total("workload.warm_trace").Seconds(),
		"trace.preprocess_s":    total("trace.preprocess").Seconds(),
		"trace.normalizer_s":    total("trace.normalizer").Seconds(),
		"gmm.fit_s":             total("gmm.fit").Seconds(),
		"policy.calibrate_s":    total("policy.calibrate").Seconds(),
		"lstm.train_s":          total("lstm.train").Seconds(),

		"workload.next_ns_op":   perOp("workload.next"),
		"serve.route_ns_op":     perOp("serve.route"),
		"trace.normalize_ns_op": perOp("trace.normalize"),
		"gmm.score_ns_op":       perOp("gmm.score"),
		"cache.access_ns_op":    perOp("cache.access"),
		"device.serve_ns_op":    perOp("device.serve"),
		"stats.observe_ns_op":   perOp("stats.observe"),
		"lstm.shadow_ns_op":     perOp("lstm.shadow"),
		"stats.summarize_ms":    medianMs("stats.summarize", ""),
		"replay.hit_ratio":      float64(rr.hits) / float64(max(rr.devOps, 1)),
		"replay.coverage":       replayed.Seconds() / cpu.Seconds(),

		"cache.hit_ratio":           s.HitRatio,
		"cache.bypass_ratio":        s.BypassRatio,
		"cache.evictions":           float64(s.Evictions),
		"cache.writebacks":          float64(s.WriteBacks),
		"ssd.reads":                 float64(s.SSDReads),
		"ssd.writes":                float64(s.SSDWrites),
		"fpga.gmm_busy_ratio":       s.GMMBusyRatio,
		"fpga.ssd_busy_ratio":       s.SSDBusyRatio,
		"fpga.queue_depth_mean":     s.QueueDepthMean,
		"fpga.stall_ratio":          s.StallRatio,
		"serve.partition_imbalance": s.PartitionImbalance,
		"refresh.installed":         float64(s.RefreshInstalled),
		"refresh.failed":            float64(s.RefreshFailed),
		"control.share_transfers":   float64(s.ShareTransfers),
		"shadow.hit_delta":          s.ShadowHitDelta,
		"sim.p99_us":                s.P99Us,
		"sim.virtual_ops_s":         s.VirtualOpsS,

		"go.alloc_b_op":  float64(l.use.allocBytes) / float64(s.Ops),
		"go.mallocs_op":  float64(l.use.mallocs) / float64(s.Ops),
		"go.gc_cycles":   float64(l.use.gcCycles),
		"go.gc_pause_ms": float64(l.use.gcPause) / 1e6,
		"go.gc_cpu_s":    l.use.gcCPU.Seconds() * scale,
	}
	// Without a successful untraced run there is nothing to compare with.
	m["trace.overhead_pct"] = 0
	if untracedLoop > 0 {
		m["trace.overhead_pct"] = 100 * (loopRef - untracedLoop) / untracedLoop
	}
	return m
}
