package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Each of these metrics is the median of several samples per run, so that
// one slow sample on a shared machine does not decide a run's value. Every
// timed open, migration and snapshot starts from a collected heap, so the
// garbage of the one before it is not collected inside it.
const (
	// setupReps is how many timed opens a run makes, the serving session's
	// included; setup_s is their median. Half of the others come before the
	// serving session and half after it, so the samples span the run.
	setupReps = 5
	// migrations is how many back-to-back checkpoint → resume → detach
	// handoffs a measured run makes at its midpoint; migrate_ms is the
	// median.
	migrations = 7
	// snapshots is how many Metrics calls follow the loop; snapshot_ms is
	// the median.
	snapshots = 7
)

// warmUp is how long a process opens sessions untimed before its first
// measured run, so that no timed call pays the process's one-off costs:
// heap growth and first-touch page faults. The smoke test sets it to zero.
var warmUp = time.Second

// warmUpProcess opens and detaches sessions of w for warmUp. An error is
// left for the measured run to report.
func warmUpProcess(w benchWorkload) {
	for start := time.Now(); time.Since(start) < warmUp; {
		sess, err := serve.Open(w.spec, nil)
		if err != nil {
			return
		}
		sess.Detach()
	}
}

// timeOpens opens and detaches n sessions of w and returns each open's
// interval.
func timeOpens(w benchWorkload, n int) ([]interval, error) {
	var ivs []interval
	for i := 0; i < n; i++ {
		runtime.GC()
		clock.sample()
		t0 := now()
		sess, err := serve.Open(w.spec, nil)
		if err != nil {
			return nil, err
		}
		ivs = append(ivs, interval{t0, now()})
		clock.sample()
		sess.Detach()
	}
	return ivs, nil
}

// simCounts is everything a run reports about the simulated system. It is
// a pure function of the spec: every run of a workload at one seed must
// produce identical values, whether it migrated, was traced, or neither.
type simCounts struct {
	Ops                uint64  `json:"ops"`
	MissPct            float64 `json:"sim_miss_pct"`
	MeanUs             float64 `json:"sim_mean_us"`
	P99Us              float64 `json:"sim_p99_us"`
	VirtualOpsS        float64 `json:"sim_virtual_ops_s"`
	HitRatio           float64 `json:"hit_ratio"`
	BypassRatio        float64 `json:"bypass_ratio"`
	Evictions          uint64  `json:"evictions"`
	WriteBacks         uint64  `json:"writebacks"`
	SSDReads           uint64  `json:"ssd_reads"`
	SSDWrites          uint64  `json:"ssd_writes"`
	GMMBusyRatio       float64 `json:"fpga_gmm_busy_ratio"`
	SSDBusyRatio       float64 `json:"fpga_ssd_busy_ratio"`
	QueueDepthMean     float64 `json:"fpga_queue_depth_mean"`
	StallRatio         float64 `json:"fpga_stall_ratio"`
	PartitionImbalance float64 `json:"partition_imbalance"`
	RefreshInstalled   uint64  `json:"refresh_installed"`
	RefreshFailed      uint64  `json:"refresh_failed"`
	ShareTransfers     int     `json:"share_transfers"`
	TenantJoins        int     `json:"tenant_joins"`
	TenantLeaves       int     `json:"tenant_leaves"`
	ShadowHitDelta     float64 `json:"shadow_hit_delta"`
	CheckpointBytes    int     `json:"checkpoint_bytes"`
	CheckpointSHA256   string  `json:"checkpoint_sha256"`
}

// runResult is one run of one workload. Untraced runs fill Metrics (the
// end-to-end metrics, host times at reference speed) and Wall (the same
// host times as raw wall time); the traced run fills Layers (the per-layer
// metrics).
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Wall     map[string]float64 `json:"wall,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Sim      simCounts          `json:"sim"`
	Err      string             `json:"error,omitempty"`

	loopRef float64 // untraced runs: the serve loop's reference time, ns
	tracer  *tracer // traced run: its spans
}

// loop is what one pass of the serve loop measured.
type loop struct {
	steps     []interval    // Step(1) calls that served a batch
	scrapes   []interval    // in-loop Metrics calls
	migrate   []interval    // checkpoint + resume, measured runs only
	snapshots []interval    // Metrics calls after the loop
	wall      time.Duration // steps and scrapes, raw
	use       usage         // process resources the loop consumed
	ckpt      []byte        // the midpoint checkpoint document
	peakRSS   float64       // MB, the larger of the two serving windows
	sim       simCounts
	partOps   []uint64 // ops served per partition, by partition index
}

// lengths measures each interval on the axis, in ns.
func lengths(ivs []interval, a refAxis) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = a.length(iv)
	}
	return out
}

// loopTime is the serve loop's time in ns: its steps on the compute axis
// and its in-loop scrapes on the summarize axis.
func loopTime(l *loop, compute, summarize refAxis) float64 {
	var t float64
	for _, x := range append(lengths(l.steps, compute), lengths(l.scrapes, summarize)...) {
		t += x
	}
	return t
}

// hostMetrics derives the host-time end-to-end metrics from a run's
// intervals: Metrics calls measured on the summarize axis, everything else
// on the compute axis.
func hostMetrics(l *loop, setup []interval, compute, summarize refAxis) map[string]float64 {
	steps := lengths(l.steps, compute)
	return map[string]float64{
		"throughput_ops_s": float64(l.sim.Ops) / (loopTime(l, compute, summarize) / 1e9),
		"step_p50_ms":      percentile(steps, 50) / 1e6,
		"step_tail_ms":     tailMean(steps, 1) / 1e6,
		"setup_s":          median(lengths(setup, compute)) / 1e9,
		"snapshot_ms":      median(lengths(l.snapshots, summarize)) / 1e6,
		"migrate_ms":       median(lengths(l.migrate, compute)) / 1e6,
	}
}

// runMeasured is one untraced run: open the session setupReps times, serve
// every batch of one of them with Step(1), migrate at the midpoint, scrape,
// close.
func runMeasured(w benchWorkload, seed int64) runResult {
	res := runResult{Workload: w.name, Seed: seed}
	fail := func(err error) runResult {
		res.Err = err.Error()
		return res
	}
	before := (setupReps - 1) / 2
	setup, err := timeOpens(w, before)
	if err != nil {
		return fail(err)
	}
	// The first peak-RSS window opens with the serving session, after the
	// discarded set-up repetitions; serveLoop closes it and opens the
	// second.
	if err := resetPeakRSS(); err != nil {
		return fail(err)
	}
	clock.sample()
	t0 := now()
	sess, err := serve.Open(w.spec, nil)
	if err != nil {
		return fail(err)
	}
	setup = append(setup, interval{t0, now()})
	clock.sample()

	l, err := serveLoop(w, sess, nil, true)
	if err != nil {
		return fail(err)
	}
	after, err := timeOpens(w, setupReps-1-before)
	if err != nil {
		return fail(err)
	}
	setup = append(setup, after...)
	res.Sim = l.sim
	compute, summarize := clock.axis(phiCompute), clock.axis(phiSummarize)
	res.loopRef = loopTime(l, compute, summarize)
	res.Metrics = hostMetrics(l, setup, compute, summarize)
	res.Wall = hostMetrics(l, setup, refAxis{}, refAxis{})
	res.Metrics["checkpoint_mb"] = float64(len(l.ckpt)) / 1e6
	res.Metrics["peak_rss_mb"] = l.peakRSS
	res.Metrics["sim_miss_pct"] = l.sim.MissPct
	res.Metrics["sim_mean_us"] = l.sim.MeanUs
	return res
}

// serveLoop steps sess to exhaustion one batch at a time, scraping Metrics
// at the workload's cadence, and closes it. At the midpoint a measured run
// (migrate set) hands the session over to a resumed copy migrations times;
// a traced run instead checkpoints, resumes a throwaway copy and keeps
// serving the original, so it stays an uninterrupted run to compare the
// migrated ones against. Loop wall and CPU time exclude the midpoint work.
//
// Peak RSS is read in two windows, from the caller's reset to the midpoint
// and from after the midpoint to the last step. Neither holds the midpoint,
// where two sessions and their checkpoint document are live at once, nor
// the snapshots after the loop; both made the peak swing by 10% between
// runs of one seed, with where the collector happened to run.
func serveLoop(w benchWorkload, sess *serve.Session, tr *tracer, migrate bool) (*loop, error) {
	l := &loop{}
	events := map[string]int{}
	var stepEvents []string
	observe := func(ev serve.Event) {
		events[ev.Kind]++
		stepEvents = append(stepEvents, ev.Kind)
	}
	sess.Observe(observe)
	mid := w.batches() / 2
	start := sampleUsage()
	var paused usage
	for b := 0; ; b++ {
		if b == mid {
			before := sampleUsage()
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			l.peakRSS = rss
			next, err := midpoint(sess, tr, b, migrate, l)
			if err != nil {
				return nil, err
			}
			sess = next
			sess.Observe(observe)
			// Collect the midpoint's garbage (checkpoint documents, detached
			// sessions) and return it to the OS, so the second half neither
			// pays for it nor counts it in its peak RSS.
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			paused = sampleUsage().sub(before)
		}
		stepEvents = stepEvents[:0]
		clock.sample()
		id := tr.begin("serve.step", b)
		t0 := now()
		n, err := sess.Step(1)
		t1 := now()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", b, err)
		}
		if n == 0 {
			break
		}
		if tr != nil {
			tr.spans[id].kind = stepKind(stepEvents)
		}
		l.steps = append(l.steps, interval{t0, t1})
		l.wall += time.Duration(t1 - t0)
		if w.scrapeEvery > 0 && (b+1)%w.scrapeEvery == 0 {
			clock.sample()
			id := tr.begin("serve.metrics", b)
			t0 := now()
			sess.Metrics()
			t1 := now()
			tr.end(id)
			l.scrapes = append(l.scrapes, interval{t0, t1})
			l.wall += time.Duration(t1 - t0)
		}
	}
	l.use = sampleUsage().sub(start).sub(paused)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	l.peakRSS = max(l.peakRSS, rss)

	var snap *serve.Snapshot
	for i := 0; i < snapshots; i++ {
		runtime.GC()
		clock.sample()
		id := tr.begin("serve.snapshot", -1)
		t0 := now()
		snap = sess.Metrics()
		l.snapshots = append(l.snapshots, interval{t0, now()})
		tr.end(id)
		clock.sample()
	}
	id := tr.begin("serve.close", -1)
	err = sess.Close()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	l.sim = simFrom(snap, events, l.ckpt)
	l.partOps = make([]uint64, len(snap.Partitions))
	for _, p := range snap.Partitions {
		l.partOps[p.Partition] = p.Ops
	}
	return l, nil
}

// midpoint performs the mid-run checkpoint work and returns the session
// that serves on.
func midpoint(sess *serve.Session, tr *tracer, batch int, migrate bool, l *loop) (*serve.Session, error) {
	if !migrate {
		var buf bytes.Buffer
		id := tr.begin("serve.checkpoint", batch)
		err := sess.Checkpoint(&buf)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		l.ckpt = buf.Bytes()
		id = tr.begin("serve.resume", batch)
		dup, err := serve.Resume(bytes.NewReader(l.ckpt), nil)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		dup.Detach()
		return sess, nil
	}
	for i := 0; i < migrations; i++ {
		runtime.GC()
		clock.sample()
		var buf bytes.Buffer
		t0 := now()
		if err := sess.Checkpoint(&buf); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		next, err := serve.Resume(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		l.migrate = append(l.migrate, interval{t0, now()})
		clock.sample()
		sess.Detach()
		sess = next
		// A resumed session must checkpoint to the very bytes it was
		// resumed from: the handoff lost or changed nothing.
		if l.ckpt == nil {
			l.ckpt = buf.Bytes()
		} else if !bytes.Equal(l.ckpt, buf.Bytes()) {
			return nil, fmt.Errorf("migration %d: checkpoint of the resumed session differs from the one it resumed", i)
		}
	}
	return sess, nil
}

// stepKind classifies a Step by the serving events it produced: a model
// refresh, a capacity move (share transfer or tenant churn), or neither.
func stepKind(events []string) string {
	kind := "plain"
	for _, e := range events {
		switch e {
		case serve.EventRefresh, serve.EventRefreshFailed:
			return "refresh"
		case serve.EventShare, serve.EventTenantJoin, serve.EventTenantLeave:
			kind = "churn"
		}
	}
	return kind
}

// simFrom extracts the simulated counts from the final snapshot, the
// observed event counts and the midpoint checkpoint.
func simFrom(snap *serve.Snapshot, events map[string]int, ckpt []byte) simCounts {
	sum := sha256.Sum256(ckpt)
	s := simCounts{
		Ops:              snap.Ops,
		MissPct:          100 * snap.Cache.MissRate(),
		P99Us:            float64(snap.Latency.P99) / 1e3,
		VirtualOpsS:      snap.Throughput,
		HitRatio:         snap.HitRatio(),
		Evictions:        snap.Cache.Evictions,
		WriteBacks:       snap.Cache.WriteBacks,
		SSDReads:         snap.SSDReads,
		SSDWrites:        snap.SSDWrites,
		RefreshInstalled: snap.Refreshes,
		RefreshFailed:    snap.RefreshesFailed,
		ShareTransfers:   events[serve.EventShare],
		TenantJoins:      events[serve.EventTenantJoin],
		TenantLeaves:     events[serve.EventTenantLeave],
		CheckpointBytes:  len(ckpt),
		CheckpointSHA256: hex.EncodeToString(sum[:]),
	}
	if snap.Latency.Count > 0 {
		s.MeanUs = float64(snap.Latency.SumNanosec) / float64(snap.Latency.Count) / 1e3
	}
	if a := snap.Cache.Accesses(); a > 0 {
		s.BypassRatio = float64(snap.Cache.Bypasses) / float64(a)
	}
	var maxOps, devOps, stalls uint64
	var queueSum float64
	for _, p := range snap.Partitions {
		maxOps = max(maxOps, p.Ops)
		devOps += p.DeviceOps
		stalls += p.Stalls
		queueSum += p.QueueDepthMean * float64(p.DeviceOps)
		s.GMMBusyRatio += p.GMMBusyRatio / float64(len(snap.Partitions))
		s.SSDBusyRatio += p.SSDBusyRatio / float64(len(snap.Partitions))
	}
	if snap.Ops > 0 {
		s.PartitionImbalance = float64(maxOps) * float64(len(snap.Partitions)) / float64(snap.Ops)
	}
	if devOps > 0 {
		s.QueueDepthMean = queueSum / float64(devOps)
		s.StallRatio = float64(stalls) / float64(devOps)
	}
	if snap.Shadow {
		var ops, hits, sOps, sHits uint64
		for _, t := range snap.Tenants {
			ops += t.Ops
			hits += t.Hits
			sOps += t.ShadowOps
			sHits += t.ShadowHits
		}
		if ops > 0 && sOps > 0 {
			s.ShadowHitDelta = float64(sHits)/float64(sOps) - float64(hits)/float64(ops)
		}
	}
	return s
}

// usage is a sample of the process's cumulative resource counters: CPU
// time and the Go runtime's allocation and collection totals.
type usage struct {
	cpu        time.Duration
	gcCPU      time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcPause    time.Duration
}

// gcCPUMetric is the runtime's estimate of CPU time spent in the garbage
// collector, mark assists included.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(gc)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      time.Duration(gc[0].Value.Float64() * 1e9),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   uint64(ms.NumGC),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:        u.cpu - v.cpu,
		gcCPU:      u.gcCPU - v.gcCPU,
		allocBytes: u.allocBytes - v.allocBytes,
		mallocs:    u.mallocs - v.mallocs,
		gcCycles:   u.gcCycles - v.gcCycles,
		gcPause:    u.gcPause - v.gcPause,
	}
}

// resetPeakRSS collects the heap, returns the free memory to the OS and
// resets the resident-set high-water mark to the current RSS.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
