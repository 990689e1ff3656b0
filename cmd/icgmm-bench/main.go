// Command icgmm-bench is the serving benchmark: it drives the committed
// serve.Spec workloads through the public serve.Session API (Open, Step(1),
// Metrics, Checkpoint, Resume, Close), checks that the outputs are correct,
// and prints every end-to-end metric by name with its unit as the median,
// quartiles and count over the runs. A traced run after the measured ones
// attributes the time to layers by timing calls into each layer's public
// functions from outside.
//
//	go run . [-workload all|NAME[,NAME]] [-seed N] [-runs R | -seconds S]
//	         [-trace 0|1] [-json FILE] [-spans FILE]
//
// The last line of standard output is one JSON object: correct, attempted
// and failed op counts, and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1). The exit status is non-zero when any run fails
// a check. See README.md for the workloads, metrics and how to read a
// trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/scenario"
)

func main() {
	// Everything the process does runs on one P, the measured calls and the
	// garbage collector alike, so every host time is the work of one CPU
	// whose speed the speed clock samples (speed.go).
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workloads []string
	seed      int64
	runs      int
	seconds   float64
	trace     bool
	jsonPath  string
	spansPath string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("icgmm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed, >= 1; N adds N-1 to every seed in the specs")
	runs := fs.Int("runs", 3, "measured runs per workload")
	seconds := fs.Float64("seconds", 0, "if > 0, replaces -runs: measure whole rounds for up to this many seconds (at least one round)")
	trace := fs.Int("trace", 1, "1 adds a traced run per workload and reports per-layer metrics on the last line; 0 reports end-to-end metrics")
	jsonPath := fs.String("json", "", "append this invocation's raw runs and summaries to FILE's list of sets")
	spansPath := fs.String("spans", "", "write the traced runs' spans to FILE as Chrome trace-event JSON (opens in Perfetto)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	o := options{seed: *seed, runs: *runs, seconds: *seconds, trace: *trace == 1, jsonPath: *jsonPath, spansPath: *spansPath}
	switch {
	case *seed < 1:
		return o, errors.New("-seed must be at least 1")
	case *runs < 1:
		return o, errors.New("-runs must be at least 1")
	case *seconds < 0:
		return o, errors.New("-seconds must not be negative")
	case *trace != 0 && *trace != 1:
		return o, errors.New("-trace must be 0 or 1")
	case *spansPath != "" && !o.trace:
		return o, errors.New("-spans needs -trace 1")
	}
	o.workloads = workloadNames
	if *names != "all" {
		o.workloads = strings.Split(*names, ",")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "icgmm-bench:", err)
		}
		return 2
	}
	ws := make([]benchWorkload, len(o.workloads))
	for i, name := range o.workloads {
		if ws[i], err = loadWorkload(name, o.seed); err != nil {
			fmt.Fprintln(stderr, "icgmm-bench:", err)
			return 2
		}
	}

	results := benchmark(ws, o, stderr)
	rep := newReport(ws, o, results)
	rep.print(stdout)
	if o.spansPath != "" {
		var trs []*tracer
		for _, r := range results {
			if r.tracer != nil {
				trs = append(trs, r.tracer)
			}
		}
		if err := writeChromeTrace(o.spansPath, trs); err != nil {
			fmt.Fprintln(stderr, "icgmm-bench: writing spans:", err)
			return 1
		}
	}
	if o.jsonPath != "" {
		if err := rep.appendTo(o.jsonPath); err != nil {
			fmt.Fprintln(stderr, "icgmm-bench: writing results:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.lastLine(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "icgmm-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// benchmark runs the measured rounds, rotating the workload order each
// round, then one traced run per workload, and applies the correctness
// checks. Results come back in the order they ran.
func benchmark(ws []benchWorkload, o options, log io.Writer) []runResult {
	var results []runResult
	clock = startSpeedClock()
	defer clock.shutdown()
	warmUpProcess(ws[0])
	start := time.Now()
	var last time.Duration // the previous round's duration
	for round := 0; ; round++ {
		if o.seconds > 0 {
			// A round serves fixed op counts and cannot stop early, so one
			// starts only when it is expected to end within the budget.
			if round > 0 && (time.Since(start)+last).Seconds() > o.seconds {
				break
			}
		} else if round >= o.runs {
			break
		}
		roundStart := time.Now()
		for i := range ws {
			w := ws[(i+round)%len(ws)]
			runtime.GC()
			r := runMeasured(w, o.seed)
			check(w, &r)
			logRun(log, r)
			results = append(results, r)
		}
		last = time.Since(roundStart)
	}
	if o.trace {
		for _, w := range ws {
			var loops []float64
			for _, r := range results {
				if r.Workload == w.name && r.Err == "" {
					loops = append(loops, r.loopRef)
				}
			}
			var untraced float64
			if len(loops) > 0 {
				untraced = median(loops)
			}
			runtime.GC()
			r := runTraced(w, o.seed, untraced)
			check(w, &r)
			logRun(log, r)
			results = append(results, r)
		}
	}
	for _, w := range ws {
		checkDeterminism(w.name, results)
	}
	return results
}

func logRun(log io.Writer, r runResult) {
	status := "ok"
	if r.Err != "" {
		status = "FAILED: " + r.Err
	}
	kind := "measured"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(log, "icgmm-bench: %s %s run: %s\n", r.Workload, kind, status)
}

// check applies the per-run correctness gates, recording the first failure
// in r.Err.
func check(w benchWorkload, r *runResult) {
	if r.Err != "" {
		return
	}
	s := r.Sim
	var joins, leaves int
	if w.spec.Scenario != nil {
		for _, ev := range w.spec.Scenario.Events {
			switch ev.Kind {
			case scenario.KindJoin:
				joins++
			case scenario.KindLeave:
				leaves++
			}
		}
	}
	switch {
	case s.Ops != w.spec.EffectiveOps():
		r.Err = fmt.Sprintf("served %d ops, spec asks for %d", s.Ops, w.spec.EffectiveOps())
	case s.RefreshFailed > 0:
		r.Err = fmt.Sprintf("%d model refits failed", s.RefreshFailed)
	case w.spec.Workload != nil && w.spec.Workload.Drift && s.RefreshInstalled == 0:
		r.Err = "the working set drifted but no refreshed model was installed"
	case s.TenantJoins != joins || s.TenantLeaves != leaves:
		r.Err = fmt.Sprintf("observed %d tenant joins and %d leaves, the scenario has %d and %d", s.TenantJoins, s.TenantLeaves, joins, leaves)
	}
}

// checkDeterminism fails every run of the workload when their simulated
// results differ: at one seed, migrated, uninterrupted and traced runs must
// all report the same simulated system.
func checkDeterminism(name string, results []runResult) {
	var ref *simCounts
	same := true
	for i := range results {
		r := &results[i]
		if r.Workload != name || r.Err != "" {
			continue
		}
		if ref == nil {
			ref = &r.Sim
		} else if r.Sim != *ref {
			same = false
		}
	}
	if same {
		return
	}
	for i := range results {
		if r := &results[i]; r.Workload == name && r.Err == "" {
			r.Err = "simulated results differ between runs of the same seed"
		}
	}
}

// isFinite filters values JSON cannot carry.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
