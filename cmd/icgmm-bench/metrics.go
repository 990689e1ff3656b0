package main

// metric names one reported number with its unit and the direction that
// counts as better. End-to-end metrics carry the bound (a share of the
// baseline median) by which they may worsen before a change is a
// regression; BENCHMARK.json at the repository root lists the same
// metrics, and a test keeps the two in step.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the serving system sees. They come
// from the untraced runs only. Each bound is at least three times the
// metric's interquartile spread over ten seeds on the baseline machine;
// host times and peak RSS keep 25%, the most a bound may be (README.md,
// "Why the bounds are 25%").
var endToEnd = []metric{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"snapshot_ms", "ms", "lower", 0.25},
	{"migrate_ms", "ms", "lower", 0.25},
	{"checkpoint_mb", "MB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_miss_pct", "%", "lower", 0.10},
	{"sim_mean_us", "us", "lower", 0.20},
}

// perLayer are the traced run's per-layer metrics. They have no bound.
var perLayer = []metric{
	// Session API spans.
	{name: "serve.train_s", unit: "s", better: "lower"},
	{name: "serve.open_other_s", unit: "s", better: "lower"},
	{name: "serve.step_plain_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.step_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.step_refresh_ms", unit: "ms", better: "lower"},
	{name: "serve.step_churn_ms", unit: "ms", better: "lower"},
	{name: "serve.metrics_ms_sum", unit: "ms", better: "lower"},
	{name: "serve.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "serve.resume_ms", unit: "ms", better: "lower"},
	{name: "serve.close_ms", unit: "ms", better: "lower"},
	{name: "serve.loop_cpu_s", unit: "s", better: "lower"},
	{name: "serve.parallelism", unit: "ratio", better: "higher"},
	{name: "serve.other_cpu_s", unit: "s", better: "lower"},
	// Set-up replay.
	{name: "workload.warm_trace_s", unit: "s", better: "lower"},
	{name: "trace.preprocess_s", unit: "s", better: "lower"},
	{name: "trace.normalizer_s", unit: "s", better: "lower"},
	{name: "gmm.fit_s", unit: "s", better: "lower"},
	{name: "policy.calibrate_s", unit: "s", better: "lower"},
	{name: "lstm.train_s", unit: "s", better: "lower"},
	// Hot-path replay.
	{name: "workload.next_ns_op", unit: "ns/op", better: "lower"},
	{name: "serve.route_ns_op", unit: "ns/op", better: "lower"},
	{name: "trace.normalize_ns_op", unit: "ns/op", better: "lower"},
	{name: "gmm.score_ns_op", unit: "ns/op", better: "lower"},
	{name: "cache.access_ns_op", unit: "ns/op", better: "lower"},
	{name: "device.serve_ns_op", unit: "ns/op", better: "lower"},
	{name: "stats.observe_ns_op", unit: "ns/op", better: "lower"},
	{name: "lstm.shadow_ns_op", unit: "ns/op", better: "lower"},
	{name: "stats.summarize_ms", unit: "ms", better: "lower"},
	{name: "replay.hit_ratio", unit: "ratio", better: "higher"},
	{name: "replay.coverage", unit: "ratio", better: "higher"},
	// Simulated, from the final snapshot: identical on every run of a seed.
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.bypass_ratio", unit: "ratio", better: "lower"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "cache.writebacks", unit: "count", better: "lower"},
	{name: "ssd.reads", unit: "count", better: "lower"},
	{name: "ssd.writes", unit: "count", better: "lower"},
	{name: "fpga.gmm_busy_ratio", unit: "ratio", better: "lower"},
	{name: "fpga.ssd_busy_ratio", unit: "ratio", better: "lower"},
	{name: "fpga.queue_depth_mean", unit: "requests", better: "lower"},
	{name: "fpga.stall_ratio", unit: "ratio", better: "lower"},
	{name: "serve.partition_imbalance", unit: "ratio", better: "lower"},
	{name: "refresh.installed", unit: "count", better: "higher"},
	{name: "refresh.failed", unit: "count", better: "lower"},
	{name: "control.share_transfers", unit: "count", better: "lower"},
	{name: "shadow.hit_delta", unit: "ratio", better: "higher"},
	{name: "sim.p99_us", unit: "us", better: "lower"},
	{name: "sim.virtual_ops_s", unit: "ops/s", better: "higher"},
	// Go runtime over the serve loop.
	{name: "go.alloc_b_op", unit: "B/op", better: "lower"},
	{name: "go.mallocs_op", unit: "1/op", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.gc_cpu_s", unit: "s", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
