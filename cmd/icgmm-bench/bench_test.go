package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestCommittedSpecsParse(t *testing.T) {
	entries, err := workloadFS.ReadDir("workloads")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, strings.TrimSuffix(e.Name(), ".json"))
	}
	if !sameSet(files, workloadNames) {
		t.Fatalf("workloads/ holds %v, the tool runs %v", files, workloadNames)
	}
	for _, name := range workloadNames {
		data, err := workloadFS.ReadFile("workloads/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := serve.ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Scoring != "float64" {
			t.Errorf("%s: scoring %q, want float64", name, spec.Scoring)
		}
		if err := checkReplayable(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		w, err := loadWorkload(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The slowest 1% of Step times is only a measured tail with >= 10
		// steps in it.
		if n := tailCount(w.batches(), 1); n < 10 {
			t.Errorf("%s: %d steps put %d in the slowest 1%%", name, w.batches(), n)
		}
	}
	if _, err := loadWorkload("nope", 1); err == nil {
		t.Error("unknown workload loaded")
	}
}

func TestWithSeed(t *testing.T) {
	for _, name := range workloadNames {
		data, _ := workloadFS.ReadFile("workloads/" + name + ".json")
		spec, err := serve.ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := serve.ParseSpec(data)
		if got := withSeed(spec, 1); !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: seed 1 changed the spec", name)
		}
		got := withSeed(spec, 5)
		if !reflect.DeepEqual(spec, orig) {
			t.Fatalf("%s: withSeed modified its argument", name)
		}
		if got.Train.Seed != spec.Train.Seed+4 {
			t.Errorf("%s: train seed %d, want %d", name, got.Train.Seed, spec.Train.Seed+4)
		}
		if w := spec.Workload; w != nil && got.Workload.Seed != w.Seed+4 {
			t.Errorf("%s: workload seed %d, want %d", name, got.Workload.Seed, w.Seed+4)
		}
		for i, ts := range spec.Tenants {
			if got.Tenants[i].Seed != ts.Seed+4 {
				t.Errorf("%s: tenant %s seed %d, want %d", name, ts.Name, got.Tenants[i].Seed, ts.Seed+4)
			}
		}
		if _, err := got.Config(); err != nil {
			t.Errorf("%s at seed 5: %v", name, err)
		}
	}
	// A zero workload or shadow seed derives from the training seed and
	// must stay zero; an explicit one shifts.
	spec := serve.Spec{
		Train:    &serve.TrainSpec{Seed: 3},
		Workload: &serve.WorkloadSpec{},
		Shadow:   &serve.ShadowSpec{Seed: 7},
	}
	got := withSeed(spec, 2)
	if got.Train.Seed != 4 || got.Workload.Seed != 0 || got.Shadow.Seed != 8 {
		t.Errorf("seeds after shift: train %d workload %d shadow %d, want 4 0 8", got.Train.Seed, got.Workload.Seed, got.Shadow.Seed)
	}
}

func TestSummaryHelpers(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5, 2, 10, 4, 8, 6}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if m := median(xs[:5]); m != 5 {
		t.Errorf("odd median = %v, want 5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 3", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	for _, c := range []struct{ n, want int }{{1000, 10}, {901, 10}, {900, 9}, {100, 1}, {0, 1}} {
		if got := tailCount(c.n, 1); got != c.want {
			t.Errorf("tailCount(%d, 1) = %d, want %d", c.n, got, c.want)
		}
	}
	if m := tailMean(xs, 20); m != 9.5 {
		t.Errorf("mean of the top 20%% = %v, want 9.5", m)
	}
	if m := tailMean(xs[:5], 1); m != 9 {
		t.Errorf("mean of the top 1%% of 5 = %v, want 9", m)
	}
	if !math.IsNaN(tailMean(nil, 1)) {
		t.Error("tail mean of nothing is not NaN")
	}
}

func TestSpans(t *testing.T) {
	tr := newTracer("w")
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	outer := tr.begin("outer", -1)
	tr.record("leaf", 0, at(0), at(3))
	tr.record("leaf", 1, at(3), at(4))
	tr.end(outer)
	tr.spans[outer].start, tr.spans[outer].end = 0, 10*time.Millisecond
	self := tr.selfTimes()
	if self["outer"] != 6*time.Millisecond || self["leaf"] != 4*time.Millisecond {
		t.Errorf("self times %v", self)
	}
	path := t.TempDir() + "/spans.json"
	if err := writeChromeTrace(path, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[3].Args["batch"] != 1.0 || doc.TraceEvents[3].Dur != 1000 {
		t.Errorf("trace events %+v", doc.TraceEvents)
	}
}

func TestRefAxis(t *testing.T) {
	// Samples 10 ns apart: two at reference speed, then floating point at
	// 3x its reference time, so r = 0.5·3 + 0.5·1 = 2 at phi 0.5.
	c := &speedClock{samples: []speedSample{
		{at: 0, fp: 1, mem: 1}, {at: 10, fp: 1, mem: 1},
		{at: 30, fp: 3, mem: 1}, {at: 20, fp: 3, mem: 1}, // filed out of order
		{at: 40, fp: 3, mem: 1},
	}}
	a := c.axis(0.5)
	for _, tc := range []struct {
		iv   interval
		want float64
	}{
		{interval{0, 20}, 20},
		{interval{20, 40}, 10},
		{interval{10, 30}, 15},
		{interval{-10, 0}, 10}, // before the first sample its speed holds
		{interval{40, 60}, 10}, // after the last, the last's
	} {
		if got := a.length(tc.iv); got != tc.want {
			t.Errorf("length(%v) = %v, want %v", tc.iv, got, tc.want)
		}
	}
	// At phi 0 only the table kernel counts, and it never slowed.
	if got := c.axis(0).length(interval{0, 40}); got != 40 {
		t.Errorf("phi 0: length = %v, want 40", got)
	}
	// One inflated reading among steady ones is dropped.
	spike := &speedClock{samples: []speedSample{{0, 1, 1}, {10, 1, 1}, {20, 9, 9}, {30, 1, 1}, {40, 1, 1}}}
	if got := spike.axis(phiCompute).length(interval{0, 40}); got != 40 {
		t.Errorf("spike: length = %v, want 40", got)
	}
	// Without a clock every time is wall time.
	var none *speedClock
	none.sample()
	if got := none.axis(phiCompute).length(interval{5, 25}); got != 20 {
		t.Errorf("no clock: length = %v, want 20", got)
	}

	// A clock that runs records samples and stops when shut down.
	run := startSpeedClock()
	run.sample()
	run.shutdown()
	if len(run.samples) == 0 {
		t.Error("running clock recorded no samples")
	}
}

func TestChecksFailRuns(t *testing.T) {
	drift, err := loadWorkload("drift-refit", 1)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := loadWorkload("scenario-shadow", 1)
	if err != nil {
		t.Fatal(err)
	}
	good := simCounts{Ops: drift.spec.EffectiveOps(), RefreshInstalled: 1}
	for _, c := range []struct {
		name string
		w    benchWorkload
		sim  simCounts
	}{
		{"short", drift, simCounts{Ops: 1, RefreshInstalled: 1}},
		{"no refresh", drift, simCounts{Ops: drift.spec.EffectiveOps()}},
		{"failed refit", drift, simCounts{Ops: drift.spec.EffectiveOps(), RefreshInstalled: 1, RefreshFailed: 1}},
		{"no churn", scen, simCounts{Ops: scen.spec.EffectiveOps(), TenantJoins: 1}},
	} {
		r := runResult{Sim: c.sim}
		if check(c.w, &r); r.Err == "" {
			t.Errorf("%s: run passed", c.name)
		}
	}
	r := runResult{Sim: good}
	if check(drift, &r); r.Err != "" {
		t.Errorf("good run failed: %s", r.Err)
	}

	other := good
	other.MissPct = 1
	results := []runResult{{Workload: "a", Sim: good}, {Workload: "a", Sim: other}, {Workload: "b", Sim: good}}
	checkDeterminism("a", results)
	if results[0].Err == "" || results[1].Err == "" || results[2].Err != "" {
		t.Errorf("determinism check: %q %q %q", results[0].Err, results[1].Err, results[2].Err)
	}

	// The replay must route every request where the live run did; with
	// closed-loop clients only its total is fixed.
	ops := drift.spec.EffectiveOps()
	live := []uint64{ops / 2, ops - ops/2}
	for _, c := range []struct {
		name string
		spec serve.Spec
		rr   replayResult
		ok   bool
	}{
		{"same routing", drift.spec, replayResult{ops: ops, partOps: []uint64{ops / 2, ops - ops/2}}, true},
		{"other routing", drift.spec, replayResult{ops: ops, partOps: []uint64{ops/2 + 1, ops - ops/2 - 1}}, false},
		{"short", drift.spec, replayResult{ops: ops - 1, partOps: []uint64{ops / 2, ops - ops/2 - 1}}, false},
		{"closed loop", scen.spec, replayResult{ops: scen.spec.EffectiveOps(), partOps: []uint64{1, 2}}, true},
	} {
		if err := checkReplay(c.spec, live, c.rr); (err == nil) != c.ok {
			t.Errorf("%s: checkReplay = %v", c.name, err)
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seed", "0"},
		{"-trace", "2"},
		{"-runs", "0"},
		{"-trace", "0", "-spans", "x.json"},
		{"extra"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// scaledDown shrinks a committed workload ~100x — ops, cache, training and
// the scenario timeline — keeping every mechanism the gates look at.
func scaledDown(t *testing.T, name string) benchWorkload {
	w, err := loadWorkload(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := w.spec
	s.Ops /= 100
	s.Warmup = 10000
	s.Cache = &serve.CacheSpec{SizeMB: 2}
	train := *s.Train
	train.K, train.MaxSamples, train.MaxIters, train.Shot = min(train.K, 8), 2000, 5, 128
	s.Train = &train
	if s.Shadow != nil {
		sh := *s.Shadow
		sh.Hidden, sh.MaxExamples, sh.Epochs = 4, 32, 1
		s.Shadow = &sh
	}
	if s.Scenario != nil {
		sc := *s.Scenario
		sc.Events = append(sc.Events[:0:0], sc.Events...)
		for i := range sc.Events {
			sc.Events[i].Batch /= 100
			sc.Events[i].Period /= 100
		}
		s.Scenario = &sc
	}
	if _, err := s.Config(); err != nil {
		t.Fatalf("%s scaled down: %v", name, err)
	}
	w.spec = s
	w.scrapeEvery = min(w.scrapeEvery, 4)
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	defer func(d time.Duration) { warmUp = d }(warmUp)
	warmUp = 0
	var ws []benchWorkload
	for _, name := range workloadNames {
		ws = append(ws, scaledDown(t, name))
	}
	// One migrated run per workload; the determinism check compares it with
	// the uninterrupted traced run.
	results := benchmark(ws, options{seed: 1, runs: 1, trace: true}, io.Discard)
	if len(results) != 2*len(ws) {
		t.Fatalf("%d results, want %d", len(results), 2*len(ws))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s (traced=%v): %s", r.Workload, r.Traced, r.Err)
		}
	}
	rep := newReport(ws, options{seed: 1}, results)
	line := rep.lastLine(true)
	if line["correct"] != true || line["failed"] != uint64(0) {
		t.Errorf("last line %v", line)
	}
	metrics := line["metrics"].(map[string]valueUnit)
	for _, wr := range rep.Workloads {
		for _, m := range perLayer {
			if _, ok := metrics[wr.Name+"/"+m.name]; !ok {
				t.Errorf("%s: no %s", wr.Name, m.name)
			}
		}
		// End-to-end metrics are never zero, so a regression bound on a
		// share of the median always means something.
		for _, m := range endToEnd {
			if v := wr.Metrics[m.name]; !(v.Median > 0) {
				t.Errorf("%s: %s median %v, want > 0", wr.Name, m.name, v.Median)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metrics and workloads this tool reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, tool runs %v", names, workloadNames)
	}
	compare := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, tool has %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, tool %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}
