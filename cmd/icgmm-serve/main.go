// Command icgmm-serve runs the online serving subsystem: a sharded cache
// service that models the ICGMM device under live open-loop traffic, with
// batched GMM admission, per-partition cxl/hbm/ssd latency accounting, and
// optional online model refresh when the hit ratio drifts.
//
// Usage:
//
//	icgmm-serve -spec run.json
//	icgmm-serve -spec run.json -shards 8 -out metrics.jsonl
//
// The spec is one versioned JSON document (see serve.Spec) that fully
// describes the run — training, partitions, tenants, controller, refresh,
// workloads and the metrics sink — and doubles as the wire format for
// shipping runs between machines. -out and -shards are the only meta
// overrides: where the metrics go and how wide the (result-invariant)
// worker pool is.
//
// The legacy per-parameter flag interface was removed in PR 6 after a
// release of -spec soak time; invoking a removed flag names the spec field
// that replaced it. The README's "Migrating from flags to -spec" note has
// the history.
//
// The service first trains an initial GMM on a warm-up trace from the same
// generator, then serves the configured requests (or ingests until the
// spec's duration of wall time passes). Metrics stream as JSONL to -out
// (default the spec's output field, default stdout): "interval" records
// while serving, then "partition" and "summary" records. For a fixed seed
// and refresh off|sync, every metric is bit-identical at any shard count; a
// closing "wall" line on stderr reports (non-deterministic) wall-clock
// throughput. A spec with tenants gains "tenant-interval", "control" and
// final "tenant" records, and a per-tenant table prints to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	if err := cliMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icgmm-serve:", err)
		os.Exit(1)
	}
}

// removedFlags maps every legacy flag retired in PR 6 to the spec field
// that replaced it, so an old invocation fails with a pointer at its exact
// migration instead of a generic parse error.
var removedFlags = map[string]string{
	"partitions":       "partitions",
	"ops":              "ops",
	"duration":         "duration",
	"workload":         "workload.name",
	"seed":             "train.seed (and workload.seed / tenants[i].seed)",
	"rate":             "workload.rate",
	"burst":            "workload.burst",
	"drift":            "workload.drift",
	"refresh":          "refresh.mode",
	"refresh-window":   "refresh.window",
	"refresh-min":      "refresh.min",
	"drift-delta":      "refresh.drift_delta",
	"drift-sustain":    "refresh.drift_sustain",
	"drift-warmup":     "refresh.drift_warmup",
	"drift-alpha":      "refresh.drift_alpha",
	"warmup":           "warmup",
	"cache-mb":         "cache.size_mb",
	"ways":             "cache.ways",
	"k":                "train.k",
	"window":           "train.window",
	"shot":             "train.shot",
	"batch":            "batch",
	"report":           "report",
	"tenants":          "tenants",
	"control-every":    "control.every",
	"control-step":     "control.step",
	"control-min-mult": "control.min_mult",
	"control-max-mult": "control.max_mult",
	"share-adapt":      "control.share_adapt",
	"share-quantum":    "control.share_quantum",
	"share-hold":       "control.share_hold",
	"share-cooldown":   "control.share_cooldown",
}

// cliMain is the testable entry point: parse the three surviving flags,
// load and validate the spec, apply the meta overrides, run.
func cliMain(args []string) error {
	if legacy := findRemovedFlag(args); legacy != "" {
		return fmt.Errorf("-%s was removed in PR 6: set the spec field %q and rerun with -spec run.json (see the README's \"Migrating from flags to -spec\" note)",
			legacy, removedFlags[legacy])
	}
	fs := flag.NewFlagSet("icgmm-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	specPath := fs.String("spec", "", "declarative run spec (JSON file, see serve.Spec); required")
	out := fs.String("out", "", "JSONL metrics sink (file path, or - for stdout); overrides the spec's output field")
	shards := fs.Int("shards", 0, "override the spec's shard worker pool size (0 = one per core; results identical at any value)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fmt.Fprintln(os.Stderr, "usage: icgmm-serve -spec run.json [-out metrics.jsonl] [-shards N]")
			fs.PrintDefaults()
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the run is described by -spec)", fs.Arg(0))
	}
	if *specPath == "" {
		return errors.New("-spec is required: icgmm-serve -spec run.json (the legacy flag interface was removed in PR 6; see the README migration note)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return fmt.Errorf("reading -spec file: %w", err)
	}
	spec, err := serve.ParseSpec(data)
	if err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["out"] {
		spec.Output = *out
	}
	if set["shards"] {
		spec.Shards = *shards
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	return runSpec(spec)
}

// findRemovedFlag scans raw arguments for a flag retired in PR 6, before
// flag parsing turns it into a generic "flag provided but not defined".
func findRemovedFlag(args []string) string {
	for _, a := range args {
		if len(a) < 2 || a[0] != '-' {
			continue
		}
		name := a[1:]
		if name[0] == '-' {
			name = name[1:]
		}
		for i := 0; i < len(name); i++ {
			if name[i] == '=' {
				name = name[:i]
				break
			}
		}
		if _, ok := removedFlags[name]; ok {
			return name
		}
	}
	return ""
}

// runSpec drives one serving run through the Session lifecycle: resolve the
// sink, train, step batches (honouring the wall-clock bound), close, report.
func runSpec(spec serve.Spec) error {
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	w := os.Stdout
	if spec.Output != "" && spec.Output != "-" {
		f, err := os.Create(spec.Output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	label := fmt.Sprintf("%d tenants", len(spec.Tenants))
	if len(spec.Tenants) == 0 {
		label = "dlrm"
		switch {
		case spec.Workload != nil && spec.Workload.Custom != nil:
			label = spec.Workload.Custom.Name
		case spec.Workload != nil && spec.Workload.Name != "":
			label = spec.Workload.Name
		}
	}
	fmt.Fprintf(os.Stderr, "training initial GMM (K=%d) on %d warm-up requests of %s...\n",
		cfg.Train.K, spec.EffectiveWarmup(), label)
	sess, err := serve.Open(spec, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving %s: shards=%d partitions=%d batch=%d refresh=%s\n",
		label, cfg.Shards, cfg.Partitions, cfg.BatchSize, cfg.Refresh.Mode)

	tel, err := startTelemetry(spec, sess)
	if err != nil {
		return err
	}
	defer tel.close()

	start := time.Now()
	var deadline time.Time
	if spec.Duration != "" {
		d, err := time.ParseDuration(spec.Duration)
		if err != nil {
			return err
		}
		deadline = start.Add(d)
	}
	for !sess.Done() {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if _, err := sess.Step(1); err != nil {
			return err
		}
		tel.afterStep(sess)
	}
	if err := sess.Close(); err != nil {
		return err
	}
	snap := sess.Metrics()
	tel.final(snap)
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr,
		"wall: served %d ops in %v (%.0f ops/s wall, %.0f ops/s virtual), hit ratio %.4f, refreshes %d\n",
		snap.Ops, wall.Round(time.Millisecond), float64(snap.Ops)/wall.Seconds(),
		snap.Throughput, snap.HitRatio(), snap.Refreshes)
	if len(spec.Tenants) > 0 {
		fmt.Fprint(os.Stderr, tenantTable(snap))
	}
	return nil
}

// sessionName labels the CLI's single session in telemetry output.
const sessionName = "serve"

// cliTelemetry is the run's optional telemetry hookup: the registry behind
// the debug server, the server itself, the trace sink, and the snapshot
// cadence. The zero value (telemetry off) makes every method a no-op, so
// the serving loop calls them unconditionally.
type cliTelemetry struct {
	reg       *telemetry.Registry
	srv       *telemetry.Server
	traceFile *os.File
	every     uint64
}

// startTelemetry resolves the spec's telemetry block: build the registry,
// open the trace sink, start the debug server (reporting the bound address
// on stderr — the spec may ask for port 0), and wire the session's event
// observer. Everything it sets up is read-side: the JSONL metric stream is
// byte-identical with or without it.
func startTelemetry(spec serve.Spec, sess *serve.Session) (*cliTelemetry, error) {
	tel := &cliTelemetry{}
	ts := spec.Telemetry
	if ts == nil {
		return tel, nil
	}
	tel.reg = telemetry.NewRegistry()
	tel.every = ts.EffectiveSnapshotEvery()
	var tracer *telemetry.Tracer
	switch ts.Trace {
	case "":
	case "-":
		tracer = telemetry.NewTracer(os.Stderr)
	default:
		f, err := os.Create(ts.Trace)
		if err != nil {
			return nil, fmt.Errorf("opening telemetry trace: %w", err)
		}
		tel.traceFile = f
		tracer = telemetry.NewTracer(f)
	}
	sess.Observe(telemetry.SessionObserver(tel.reg, tracer, sessionName))
	tel.reg.PublishSnapshot(sessionName, sess.Metrics())
	if ts.Addr != "" {
		srv, err := telemetry.Serve(ts.Addr, tel.reg)
		if err != nil {
			return nil, err
		}
		tel.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: http://%s (/metrics /status /debug/pprof)\n", srv.Addr())
	}
	return tel, nil
}

// afterStep publishes the session's progress after each batch, and a full
// snapshot (which merges every partition's histograms) every `every` batches.
func (t *cliTelemetry) afterStep(sess *serve.Session) {
	if t.reg == nil {
		return
	}
	t.reg.PublishProgress(sessionName, sess.Batches(), sess.Done())
	if sess.Batches()%t.every == 0 {
		t.reg.PublishSnapshot(sessionName, sess.Metrics())
	}
}

// final publishes the closing snapshot so a last scrape sees the full run.
func (t *cliTelemetry) final(snap *serve.Snapshot) {
	if t.reg == nil {
		return
	}
	t.reg.PublishProgress(sessionName, snap.Batches, true)
	t.reg.PublishSnapshot(sessionName, snap)
}

// close tears the debug server and trace sink down.
func (t *cliTelemetry) close() {
	if t.srv != nil {
		t.srv.Close() //nolint:errcheck // teardown
	}
	if t.traceFile != nil {
		t.traceFile.Close() //nolint:errcheck // teardown
	}
}

// tenantTable renders the final per-tenant accounting as an aligned table.
func tenantTable(snap *serve.Snapshot) string {
	tbl := stats.NewTable("per-tenant summary",
		"tenant", "ops", "hit%", "mb_admitted", "p99_us", "hbm_p99_us", "ssd_p99_us", "blocks", "threshold", "qos", "in_band")
	for i := range snap.Tenants {
		ts := &snap.Tenants[i]
		qos, inBand := "-", "-"
		if ts.QoS != nil {
			qos = fmt.Sprintf("%s<=%.3g", ts.QoS.Metric, ts.QoS.Target)
			if ts.QoS.Metric == serve.QoSHitRatio {
				qos = fmt.Sprintf("%s>=%.3g", ts.QoS.Metric, ts.QoS.Target)
			}
			if ts.QoSValid {
				inBand = fmt.Sprintf("%v", ts.WithinQoS)
			}
		}
		tbl.AddRow(ts.Tenant, ts.Ops, 100*ts.HitRatio(),
			float64(ts.BytesAdmitted)/(1<<20),
			float64(ts.Latency.P99.Nanoseconds())/1e3,
			float64(ts.HBM.P99.Nanoseconds())/1e3,
			float64(ts.SSD.P99.Nanoseconds())/1e3,
			fmt.Sprintf("%d/%d", ts.ResidentBlocks, ts.BudgetBlocks),
			ts.Threshold, qos, inBand)
	}
	return tbl.String()
}
