package main

import (
	"embed"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/serve"
)

// The committed workloads. Each is a plain serve.Spec document; the tool
// adds nothing to it except the -seed offset. Why each one exists is in
// README.md.
//
//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames fixes the order of a full set; rounds rotate through it.
var workloadNames = []string{"paper-dlrm", "tenants-telemetry", "drift-refit", "scenario-shadow"}

// benchWorkload is one named spec plus what the tool derives from it.
type benchWorkload struct {
	name string
	spec serve.Spec
	// scrapeEvery is the batch cadence of in-loop Session.Metrics calls: the
	// spec's telemetry snapshot_every, the same cadence the CLI publishes
	// /metrics at. Zero when the spec has no telemetry block.
	scrapeEvery int
}

// batches is the number of Step(1) calls the run takes.
func (w benchWorkload) batches() int {
	ops := w.spec.EffectiveOps()
	b := uint64(w.spec.Batch)
	return int((ops + b - 1) / b)
}

// loadWorkload parses the committed spec for name and applies the seed
// offset.
func loadWorkload(name string, seed int64) (benchWorkload, error) {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return benchWorkload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
	}
	spec, err := serve.ParseSpec(data)
	if err != nil {
		return benchWorkload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	// The tool relies on explicit values for what it reads from the spec: a
	// batch size for the step count, a training seed to offset (a zero seed
	// would silently fall back to serve's default and escape -seed), and a
	// shard count that the tool's Ps can actually run in parallel.
	if spec.Batch <= 0 || spec.Train == nil || spec.Train.Seed == 0 || spec.Shards <= 0 {
		return benchWorkload{}, fmt.Errorf("workload %s: spec must set batch, shards and train.seed explicitly", name)
	}
	if spec.Shards > runtime.GOMAXPROCS(0) {
		return benchWorkload{}, fmt.Errorf("workload %s: spec runs %d shards but the tool runs on %d Ps; its numbers would measure oversubscription", name, spec.Shards, runtime.GOMAXPROCS(0))
	}
	w := benchWorkload{name: name, spec: withSeed(spec, seed)}
	if spec.Telemetry != nil {
		w.scrapeEvery = int(spec.Telemetry.EffectiveSnapshotEvery())
	}
	return w, nil
}

// withSeed returns a copy of s with every seed field shifted by n-1, so seed
// 1 is the committed spec. A zero workload or shadow seed means "use the
// training seed" and stays zero, following the shifted training seed.
func withSeed(s serve.Spec, n int64) serve.Spec {
	d := n - 1
	if s.Train != nil {
		t := *s.Train
		t.Seed += d
		s.Train = &t
	}
	if s.Workload != nil {
		w := *s.Workload
		if w.Seed != 0 {
			w.Seed += d
		}
		s.Workload = &w
	}
	if s.Tenants != nil {
		ts := append([]serve.TenantSpec(nil), s.Tenants...)
		for i := range ts {
			ts[i].Seed += d
		}
		s.Tenants = ts
	}
	if s.Shadow != nil {
		sh := *s.Shadow
		if sh.Seed != 0 {
			sh.Seed += d
		}
		s.Shadow = &sh
	}
	return s
}
