package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// elasticSpec loads the committed 3-tenant elastic scenario spec — the same
// document cmd/icgmm-serve ships in its testdata — and pins it to the given
// shard count. One spec file on disk is both the CLI's golden input and this
// package's session fixture, so the two can never drift apart.
func elasticSpec(t testing.TB, shards int) serve.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "icgmm-serve", "testdata", "spec-elastic.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := serve.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = shards
	return spec
}

// TestSessionGoldenAcrossCheckpoint extends the golden determinism contract
// across a checkpoint boundary: the pinned 3-tenant elastic scenario is run
// to batch 72, checkpointed, resumed into a fresh session (fresh Service,
// fresh caches, fresh streams — a process-equivalent restart), and the
// concatenated JSONL must equal the committed golden byte stream at shards
// 1, 2 and 8. Batch 72 is the last control boundary before the scenario's
// single share transfer (batch 80), so the transfer lands in the resumed
// half and the controller's saturation/cooldown state provably survives
// the boundary.
func TestSessionGoldenAcrossCheckpoint(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("testdata", "tenant_golden.jsonl"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}

	// The uninterrupted session must reproduce the golden stream — the
	// Session lifecycle is a byte-compatible replacement for Service.Run.
	var full bytes.Buffer
	sess, err := serve.Open(elasticSpec(t, 1), &full)
	if err != nil {
		t.Fatal(err)
	}
	snapFull, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), golden) {
		t.Errorf("uninterrupted session JSONL diverges from the golden file (%d vs %d bytes)", full.Len(), len(golden))
	}
	if snapFull.Refreshes == 0 {
		t.Error("session run lost the scenario's refresh coverage")
	}

	for _, shards := range []int{1, 2, 8} {
		var pre bytes.Buffer
		sess, err := serve.Open(elasticSpec(t, shards), &pre)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sess.Step(72); err != nil || n != 72 {
			t.Fatalf("shards=%d: Step(72) = %d, %v", shards, n, err)
		}
		var ckpt bytes.Buffer
		if err := sess.Checkpoint(&ckpt); err != nil {
			t.Fatalf("shards=%d: checkpoint: %v", shards, err)
		}
		// The paused session is abandoned, never closed: the resumed one
		// continues its metric stream.
		var post bytes.Buffer
		resumed, err := serve.Resume(bytes.NewReader(ckpt.Bytes()), &post)
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		if got := resumed.Batches(); got != 72 {
			t.Fatalf("shards=%d: resumed at batch %d, want 72", shards, got)
		}
		snap, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		concat := append(append([]byte(nil), pre.Bytes()...), post.Bytes()...)
		if !bytes.Equal(concat, golden) {
			t.Errorf("shards=%d: checkpoint-resumed JSONL diverges from the golden file (%d vs %d bytes)",
				shards, len(concat), len(golden))
		}
		if !bytes.Contains(post.Bytes(), []byte(`"kind":"share"`)) {
			t.Errorf("shards=%d: the share transfer did not survive the checkpoint boundary", shards)
		}
		if !reflect.DeepEqual(snap, snapFull) {
			t.Errorf("shards=%d: resumed final snapshot differs from the uninterrupted run", shards)
		}
	}
}

// smallSessionSpec is a fast 2-tenant scenario exercising every piece of
// checkpointed state: QoS controller with elastic shares, a mid-run
// working-set growth, and sync refresh.
func smallSessionSpec(t testing.TB) serve.Spec {
	t.Helper()
	spec, err := serve.ParseSpec([]byte(`{
	 "version": 1, "shards": 2, "partitions": 4, "ops": 16384, "warmup": 16000,
	 "batch": 1024, "report": 4,
	 "cache": {"size_mb": 1, "ways": 8},
	 "train": {"k": 4, "max_iters": 6, "max_samples": 2000, "lloyd_iters": 2, "shot": 128},
	 "refresh": {"mode": "sync", "window": 4096, "min": 1024,
	  "drift_delta": 0.10, "drift_sustain": 1, "drift_warmup": 4, "drift_alpha": 0.2},
	 "control": {"every": 2, "step": 1.6, "min_mult": 0.125, "max_mult": 8,
	  "share_adapt": true, "share_quantum": 4, "share_hold": 2, "share_cooldown": 1, "share_floor": 4},
	 "tenants": [
	  {"name": "a",
	   "custom": {"Name": "a-ws", "TotalPages": 300,
	    "Clusters": [{"CenterPage": 80, "Spread": 25}, {"CenterPage": 220, "Spread": 20}],
	    "WriteFrac": 0.2},
	   "seed": 1, "rate": 20000, "share": 0.6,
	   "shift_after": 8192, "shift_offset_pages": 524288,
	   "qos": {"metric": "hit_ratio", "target": 0.7, "band": 0.1}},
	  {"name": "b",
	   "custom": {"Name": "b-ws", "TotalPages": 160,
	    "Clusters": [{"CenterPage": 60, "Spread": 20}], "WriteFrac": 0.3},
	   "seed": 2, "rate": 10000, "offset_pages": 65536, "share": 0.4,
	   "shift_after": 6144, "shift_offset_pages": 131072,
	   "shift_custom": {"Name": "b-grown", "TotalPages": 400,
	    "Clusters": [{"CenterPage": 100, "Spread": 45}, {"CenterPage": 300, "Spread": 45}],
	    "WriteFrac": 0.3},
	   "qos": {"metric": "hit_ratio", "target": 0.6, "band": 0.15}}
	 ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// latencySessionSpec is smallSessionSpec with latency targets: tenant a
// holds a mean_ns ceiling and tenant b a p99_ns ceiling, stepped every 3
// batches, so most batch boundaries fall inside a control interval. A
// checkpoint there must carry the controller's marks and b's interval
// histograms for the resumed run to measure the rest of the interval.
func latencySessionSpec(t testing.TB) serve.Spec {
	t.Helper()
	spec := smallSessionSpec(t)
	spec.Control.Every = 3
	spec.Tenants[0].QoS = &serve.QoSSpec{Metric: serve.QoSMeanNs, Target: 800_000, Band: 0.1}
	spec.Tenants[1].QoS = &serve.QoSSpec{Metric: serve.QoSP99Ns, Target: 8_000_000, Band: 0.1}
	return spec
}

// TestSessionCheckpointEveryBoundary is the resume property test: one
// uninterrupted run is checkpointed at EVERY batch boundary (including
// batch 0 and the final boundary), every checkpoint is resumed to
// completion, and each resumed JSONL — concatenated after the bytes the
// paused run had emitted — must equal the uninterrupted stream, with a
// deep-equal final snapshot. Checkpointing is non-destructive, so one live
// session provides all the boundaries. The hit_ratio spec steps its
// controller every 2 batches; the latency spec every 3, with a p99_ns
// tenant whose interval histograms ride through the checkpoint.
func TestSessionCheckpointEveryBoundary(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		spec func(testing.TB) serve.Spec
	}{
		{"hit_ratio", smallSessionSpec},
		{"latency", latencySessionSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkpointEveryBoundary(t, tc.spec(t))
		})
	}
}

// checkpointEveryBoundary is TestSessionCheckpointEveryBoundary's body for
// one 16-batch spec.
func checkpointEveryBoundary(t *testing.T, spec serve.Spec) {
	var full bytes.Buffer
	sess, err := serve.Open(spec, &full)
	if err != nil {
		t.Fatal(err)
	}
	type mark struct {
		ckpt      []byte
		prefixLen int
		batch     uint64
	}
	var marks []mark
	for {
		var ckpt bytes.Buffer
		if err := sess.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{ckpt: ckpt.Bytes(), prefixLen: full.Len(), batch: sess.Batches()})
		n, err := sess.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	snapFull, err := sess.Run() // already exhausted: emits the final records
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := append([]byte(nil), full.Bytes()...)
	if len(marks) != 17 { // 16 batches -> 17 boundaries
		t.Fatalf("expected 17 checkpoint boundaries, got %d", len(marks))
	}
	if snapFull.Refreshes == 0 {
		t.Error("scenario lost its refresh coverage")
	}

	for _, m := range marks {
		var post bytes.Buffer
		resumed, err := serve.Resume(bytes.NewReader(m.ckpt), &post)
		if err != nil {
			t.Fatalf("batch %d: resume: %v", m.batch, err)
		}
		snap, err := resumed.Run()
		if err != nil {
			t.Fatalf("batch %d: %v", m.batch, err)
		}
		concat := append(append([]byte(nil), fullBytes[:m.prefixLen]...), post.Bytes()...)
		if !bytes.Equal(concat, fullBytes) {
			t.Errorf("batch %d: resumed JSONL diverges from the uninterrupted run (%d vs %d bytes)",
				m.batch, len(concat), len(fullBytes))
		}
		if !reflect.DeepEqual(snap, snapFull) {
			t.Errorf("batch %d: resumed snapshot differs from the uninterrupted run", m.batch)
		}
	}
}

// TestSessionCheckpointSingleStream covers the open-loop (non-tenant) source
// across a checkpoint that brackets a working-set drift and its sync
// refresh: the stream's segment cursor, shift flag and virtual clock must
// all survive serialization.
func TestSessionCheckpointSingleStream(t *testing.T) {
	t.Parallel()
	spec, err := serve.ParseSpec([]byte(`{
	 "version": 1, "shards": 2, "partitions": 8, "ops": 61440, "warmup": 30000,
	 "batch": 1024, "report": 8,
	 "cache": {"size_mb": 1, "ways": 8},
	 "train": {"k": 8, "max_iters": 8, "max_samples": 3000, "lloyd_iters": 2, "shot": 256},
	 "refresh": {"mode": "sync", "window": 8192, "min": 2048,
	  "drift_delta": 0.25, "drift_sustain": 2, "drift_warmup": 4, "drift_alpha": 0.05},
	 "workload": {
	  "custom": {"Name": "session-ws", "TotalPages": 4096,
	   "Clusters": [{"CenterPage": 600, "Spread": 40}, {"CenterPage": 2600, "Spread": 60}],
	   "WriteFrac": 0.2},
	  "seed": 7, "rate": 5000000, "burst": 0.3, "drift": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	sess, err := serve.Open(spec, &full)
	if err != nil {
		t.Fatal(err)
	}
	snapFull, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if snapFull.Refreshes == 0 {
		t.Fatal("drift did not trigger a refresh; the test lost its refresh coverage")
	}

	// Checkpoint both before and after the mid-run shift (batch 30).
	for _, at := range []int{20, 45} {
		var pre bytes.Buffer
		sess, err := serve.Open(spec, &pre)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sess.Step(at); err != nil || n != at {
			t.Fatalf("Step(%d) = %d, %v", at, n, err)
		}
		var ckpt bytes.Buffer
		if err := sess.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		var post bytes.Buffer
		resumed, err := serve.Resume(&ckpt, &post)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		concat := append(append([]byte(nil), pre.Bytes()...), post.Bytes()...)
		if !bytes.Equal(concat, full.Bytes()) {
			t.Errorf("checkpoint at batch %d: resumed JSONL diverges (%d vs %d bytes)", at, len(concat), full.Len())
		}
		if !reflect.DeepEqual(snap, snapFull) {
			t.Errorf("checkpoint at batch %d: resumed snapshot differs", at)
		}
	}
}

// TestSessionLifecycleErrors pins the API's edges: stepping or
// checkpointing a closed session fails, Close is idempotent, and resuming
// garbage or a format the build does not read fails loudly.
func TestSessionLifecycleErrors(t *testing.T) {
	t.Parallel()
	spec := smallSessionSpec(t)
	sess, err := serve.Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := sess.Step(1); err == nil {
		t.Error("Step on a closed session succeeded")
	}
	if err := sess.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("Checkpoint on a closed session succeeded")
	}
	if _, err := serve.Resume(bytes.NewReader([]byte("not json")), nil); err == nil {
		t.Error("resumed from garbage")
	}
	if _, err := serve.Resume(bytes.NewReader([]byte(`{"format":"icgmm-session-v999"}`)), nil); err == nil {
		t.Error("resumed from an unknown format")
	}
}

// TestSessionStepDoneMetrics drives the incremental API directly: Step
// bounds, Done transitions, and the Metrics snapshot between steps.
func TestSessionStepDoneMetrics(t *testing.T) {
	t.Parallel()
	spec, err := serve.ParseSpec([]byte(`{
	 "version": 1, "shards": 1, "partitions": 4, "ops": 4096, "warmup": 16000,
	 "batch": 1024, "report": 2, "cache": {"size_mb": 1, "ways": 8},
	 "train": {"k": 4, "max_iters": 5, "max_samples": 2000, "lloyd_iters": 2, "shot": 128},
	 "workload": {"name": "parsec", "rate": 2000000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := serve.Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() || sess.Batches() != 0 {
		t.Fatalf("fresh session: done=%v batches=%d", sess.Done(), sess.Batches())
	}
	if n, err := sess.Step(3); err != nil || n != 3 {
		t.Fatalf("Step(3) = %d, %v", n, err)
	}
	mid := sess.Metrics()
	if mid.Ops != 3*1024 || sess.Batches() != 3 {
		t.Errorf("mid-run snapshot ops=%d batches=%d", mid.Ops, sess.Batches())
	}
	// Asking for more batches than remain serves the tail and reports Done.
	if n, err := sess.Step(10); err != nil || n != 1 {
		t.Fatalf("tail Step = %d, %v", n, err)
	}
	if !sess.Done() {
		t.Error("session not done after source exhaustion")
	}
	snap, err := sess.Run() // immediate: just closes and snapshots
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ops != 4096 {
		t.Errorf("final ops = %d", snap.Ops)
	}
}

// TestMetricsRepeatable: Metrics merges into histograms the service reuses,
// so no snapshot may depend on an earlier one. Two calls in a row agree, and
// a session that took a snapshot after every batch ends with the same final
// snapshot as one that took none.
func TestMetricsRepeatable(t *testing.T) {
	t.Parallel()
	spec := smallSessionSpec(t)
	watched, err := serve.Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := serve.Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !watched.Done() {
		if _, err := watched.Step(1); err != nil {
			t.Fatal(err)
		}
		first, second := watched.Metrics(), watched.Metrics()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("batch %d: back-to-back snapshots differ:\n%+v\n%+v", watched.Batches(), first, second)
		}
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := watched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final snapshot after per-batch snapshots differs:\n%+v\nwant %+v", got, want)
	}
	if len(got.Tenants) != 2 || got.Tenants[0].Latency.Count == 0 || got.Tenants[1].SSD.Count == 0 {
		t.Fatalf("final snapshot lacks the tenant latencies this test reuses targets across: %+v", got.Tenants)
	}
}

// TestResumeRejectsCorruptCheckpoints: a checkpoint whose state disagrees
// with the spec it carries (or with itself) must fail to resume with an
// error, never produce a silently-wrong session.
func TestResumeRejectsCorruptCheckpoints(t *testing.T) {
	t.Parallel()
	spec := smallSessionSpec(t)
	sess, err := serve.Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(2); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sess.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if snap := sess.Metrics(); snap.Refreshes != sess.Metrics().Refreshes {
		t.Fatal("unreachable") // exercise the accessor deterministically
	}

	tamper := func(t *testing.T, mutate func(doc map[string]any)) []byte {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(ckpt.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	state := func(doc map[string]any) map[string]any { return doc["state"].(map[string]any) }
	// ownedWay returns partition 0's policy and the first owned way in its
	// owner map, as (set, way).
	ownedWay := func(doc map[string]any) (map[string]any, int, int) {
		pol := state(doc)["partitions"].([]any)[0].(map[string]any)["policy"].(map[string]any)
		for si, row := range pol["owner"].([]any) {
			for w, o := range row.([]any) {
				if o.(float64) >= 0 {
					return pol, si, w
				}
			}
		}
		panic("partition 0 holds no owned block")
	}
	cases := map[string]func(doc map[string]any){
		"partition count": func(doc map[string]any) {
			s := state(doc)
			parts := s["partitions"].([]any)
			s["partitions"] = parts[:2]
		},
		"tenant count": func(doc map[string]any) {
			s := state(doc)
			s["tenants"] = []any{}
		},
		"policy geometry": func(doc map[string]any) {
			p := state(doc)["partitions"].([]any)[0].(map[string]any)
			pol := p["policy"].(map[string]any)
			pol["scores"] = []any{}
		},
		"window cursor": func(doc map[string]any) {
			w := state(doc)["window"].(map[string]any)
			w["pos"] = 3.0
			w["full"] = false
			w["pages"] = []any{}
		},
		"negative bundle weight": func(doc map[string]any) {
			b := state(doc)["bundle"].(map[string]any)
			b["components"].([]any)[0].(map[string]any)["weight"] = -1.0
		},
		"missing source": func(doc map[string]any) {
			doc["source"] = map[string]any{"remaining": 1.0}
		},
		"source shape mismatch": func(doc map[string]any) {
			src := doc["source"].(map[string]any)
			src["open_loop"] = map[string]any{"seg": 1.0, "pos": 0.0, "emitted": 0.0, "clock_ns": 0.0}
			delete(src, "mux")
		},
		"interval histogram for a hit_ratio tenant": func(doc map[string]any) {
			p := state(doc)["partitions"].([]any)[0].(map[string]any)
			cell := p["tenants"].([]any)[0].(map[string]any)
			cell["interval_hist"] = map[string]any{}
		},
		// Residency is counted from the owner map at resume, so the map
		// must name real tenants, match the cache, and fit the budgets.
		"owner outside the tenants": func(doc map[string]any) {
			pol, si, w := ownedWay(doc)
			pol["owner"].([]any)[si].([]any)[w] = 99.0
		},
		"valid cache way without an owner": func(doc map[string]any) {
			pol, si, w := ownedWay(doc)
			pol["owner"].([]any)[si].([]any)[w] = -1.0
		},
		"tenant over its budget": func(doc map[string]any) {
			pol, si, w := ownedWay(doc)
			owner := int(pol["owner"].([]any)[si].([]any)[w].(float64))
			pol["budget"].([]any)[owner] = 0.0
		},
		"cache set count": func(doc map[string]any) {
			p := state(doc)["partitions"].([]any)[0].(map[string]any)
			c := p["cache"].(map[string]any)
			c["sets"] = []any{}
		},
		"duplicate page within a set": func(doc map[string]any) {
			p := state(doc)["partitions"].([]any)[0].(map[string]any)
			sets := p["cache"].(map[string]any)["sets"].([]any)
			for _, raw := range sets {
				set := raw.([]any)
				var first map[string]any
				for _, b := range set {
					blk := b.(map[string]any)
					if blk["valid"] != true {
						continue
					}
					if first == nil {
						first = blk
						continue
					}
					blk["page"] = first["page"]
					return
				}
			}
			panic("no set with two valid blocks to duplicate")
		},
	}
	for name, mutate := range cases {
		if _, err := serve.Resume(bytes.NewReader(tamper(t, mutate)), nil); err == nil {
			t.Errorf("%s: corrupt checkpoint resumed", name)
		}
	}

	// Decoding is not strict, so only its format stops an older document
	// loading with fields silently dropped. A v1 document kept raw samples
	// in every histogram. A v2 one kept per-interval control copies instead
	// of marks, so it would resume with zero marks and queue sums and
	// mis-measure the next control interval. A v3 one stored its refit
	// window as "items", so it would resume with an empty window.
	for _, old := range []string{"icgmm-session-v1", "icgmm-session-v2", "icgmm-session-v3"} {
		doc := tamper(t, func(doc map[string]any) { doc["format"] = old })
		_, err = serve.Resume(bytes.NewReader(doc), nil)
		if err == nil || !strings.Contains(err.Error(), `unknown checkpoint format "`+old+`"`) {
			t.Errorf("%s checkpoint: err = %v, want the unknown-format error", old, err)
		}
	}
}
