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
	"repro/internal/trace"
)

// scenarioSpec loads the committed scenario spec — timeline events, closed-loop
// clients and an LSTM shadow policy over three tenants — and pins it to the
// given shard count. Like elasticSpec, the same document is the CLI's smoke
// input, so the fixture and the shipped spec can never drift apart.
func scenarioSpec(t testing.TB, shards int) serve.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "icgmm-serve", "testdata", "spec-scenario.json"))
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

// TestServeScenarioGolden pins the full scenario-engine feature set to a
// golden byte stream: a diurnal rate schedule (batch 16), a tenant leave
// (batch 24) and re-join (batch 56) with deterministic capacity rebalance, a
// workload-phase swap (batch 40), closed-loop clients, and a shadow LSTM
// policy. The stream must be bit-identical at shards 1, 2 and 8, and across a
// checkpoint/resume at batch 40 — a boundary that straddles the leave and the
// join, with the phase event landing exactly on it (it must fire once, in the
// resumed half, as it would in an uninterrupted run).
func TestServeScenarioGolden(t *testing.T) {
	t.Parallel()
	goldenPath := filepath.Join("testdata", "scenario_golden.jsonl")

	var full bytes.Buffer
	sess, err := serve.Open(scenarioSpec(t, 1), &full)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	sess.Observe(func(ev serve.Event) { kinds[ev.Kind]++ })
	snapFull, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if kinds[serve.EventTenantLeave] != 1 || kinds[serve.EventTenantJoin] != 1 {
		t.Errorf("tenant churn events = %d leave / %d join, want 1 / 1",
			kinds[serve.EventTenantLeave], kinds[serve.EventTenantJoin])
	}
	if kinds[serve.EventShadowDivergence] == 0 {
		t.Error("no shadow_divergence events despite the committed 0.05 threshold")
	}

	if *updateGolden {
		if err := os.WriteFile(goldenPath, full.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, full.Len())
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(full.Bytes(), golden) {
		t.Errorf("uninterrupted scenario run diverges from the golden file (%d vs %d bytes)", full.Len(), len(golden))
	}

	// The stream must carry every scenario event, at least one rebalance
	// share transfer, and shadow-policy deltas.
	for _, want := range []string{
		`"event":"diurnal"`, `"event":"leave"`, `"event":"phase"`, `"event":"join"`,
		`"kind":"share"`, `"shadow_hit_ratio"`,
	} {
		if !bytes.Contains(golden, []byte(want)) {
			t.Errorf("golden stream lacks %s", want)
		}
	}
	if snapFull.Ops == 0 || !snapFull.Shadow {
		t.Fatalf("scenario snapshot lost its run: ops=%d shadow=%v", snapFull.Ops, snapFull.Shadow)
	}

	for _, shards := range []int{1, 2, 8} {
		var pre bytes.Buffer
		sess, err := serve.Open(scenarioSpec(t, shards), &pre)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sess.Step(40); err != nil || n != 40 {
			t.Fatalf("shards=%d: Step(40) = %d, %v", shards, n, err)
		}
		var ckpt bytes.Buffer
		if err := sess.Checkpoint(&ckpt); err != nil {
			t.Fatalf("shards=%d: checkpoint: %v", shards, err)
		}
		var post bytes.Buffer
		resumed, err := serve.Resume(bytes.NewReader(ckpt.Bytes()), &post)
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
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
		// The leave fired before the boundary, the join after it; the phase
		// swap sits exactly on the boundary and must fire in the resumed
		// half only.
		if !bytes.Contains(pre.Bytes(), []byte(`"event":"leave"`)) {
			t.Errorf("shards=%d: leave event missing from the pre-checkpoint stream", shards)
		}
		for _, want := range []string{`"event":"phase"`, `"event":"join"`} {
			if bytes.Contains(pre.Bytes(), []byte(want)) {
				t.Errorf("shards=%d: %s fired before the checkpoint boundary", shards, want)
			}
			if !bytes.Contains(post.Bytes(), []byte(want)) {
				t.Errorf("shards=%d: %s missing from the post-resume stream", shards, want)
			}
		}
		if !reflect.DeepEqual(snap, snapFull) {
			t.Errorf("shards=%d: resumed final snapshot differs from the uninterrupted run", shards)
		}
	}
}

// TestScenarioResumeIgnoresClockKeys resumes a scenario checkpoint in the
// layout older builds wrote: each partition's shadow LSTM policy state also
// carried its Algorithm 1 clock, the transformer cursor (clock_timestamp,
// clock_index) and the last timestamp (cur_time). The shadow cache's
// checkpointed arrival index fixes that clock now, so the resumed run ignores
// the keys and its stream still completes the golden byte for byte.
func TestScenarioResumeIgnoresClockKeys(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("testdata", "scenario_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	spec := scenarioSpec(t, 2)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	tcfg := cfg.Transform.Sanitized()
	var pre bytes.Buffer
	sess, err := serve.Open(spec, &pre)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sess.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Decode with json.Number so every other value re-encodes exactly.
	dec := json.NewDecoder(&ckpt)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	parts := doc["state"].(map[string]any)["partitions"].([]any)
	for i, p := range parts {
		shadow := p.(map[string]any)["shadow"].(map[string]any)
		pol := shadow["policy"].(map[string]any)
		for _, key := range []string{"clock_timestamp", "clock_index", "cur_time"} {
			if _, ok := pol[key]; ok {
				t.Fatalf("partition %d: the checkpoint still writes %s", i, key)
			}
		}
		seq, err := shadow["cache"].(map[string]any)["seq"].(json.Number).Int64()
		if err != nil || seq == 0 {
			t.Fatalf("partition %d: shadow cache seq %v, %v", i, seq, err)
		}
		// The values the streaming transformer held after seq requests.
		last := uint64(seq - 1)
		ts := trace.Timestamp(last, tcfg.LenWindow, tcfg.LenAccessShot)
		pol["clock_timestamp"] = ts
		pol["clock_index"] = last%uint64(tcfg.LenWindow) + 1
		pol["cur_time"] = ts
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	var post bytes.Buffer
	resumed, err := serve.Resume(bytes.NewReader(old), &post)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if got := append(pre.Bytes(), post.Bytes()...); !bytes.Equal(got, golden) {
		t.Errorf("resumed from a checkpoint with the old clock keys: JSONL diverges from the golden file (%d vs %d bytes)", len(got), len(golden))
	}
}

// TestScenarioShadowNoLiveEffect proves the bake-off harness is a pure
// observer: running the committed scenario spec with the shadow block removed
// must produce the exact same stream as the shadowed run once the shadow-only
// JSON fields are stripped, and the live cache/tenant counters must match
// field for field.
func TestScenarioShadowNoLiveEffect(t *testing.T) {
	t.Parallel()
	withSpec := scenarioSpec(t, 1)
	withoutSpec := scenarioSpec(t, 1)
	withoutSpec.Shadow = nil

	var withBuf, withoutBuf bytes.Buffer
	run := func(spec serve.Spec, out *bytes.Buffer) *serve.Snapshot {
		sess, err := serve.Open(spec, out)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	withSnap := run(withSpec, &withBuf)
	withoutSnap := run(withoutSpec, &withoutBuf)

	stripped := stripShadowFields(t, withBuf.String())
	plain := decodeJSONL(t, withoutBuf.String())
	if len(stripped) != len(plain) {
		t.Fatalf("record counts differ: %d with shadow stripped vs %d without", len(stripped), len(plain))
	}
	for i := range plain {
		if !reflect.DeepEqual(stripped[i], plain[i]) {
			t.Fatalf("record %d differs once shadow fields are stripped:\nwith:    %v\nwithout: %v", i, stripped[i], plain[i])
		}
	}

	// Live counters are untouched: identical ops, hits and budgets per
	// tenant, identical aggregate hit ratio and latency distribution.
	if withSnap.Ops != withoutSnap.Ops || withSnap.Cache != withoutSnap.Cache || withSnap.Latency != withoutSnap.Latency {
		t.Errorf("shadow perturbed aggregate counters: with=%+v without=%+v", withSnap, withoutSnap)
	}
	if len(withSnap.Tenants) != len(withoutSnap.Tenants) {
		t.Fatalf("tenant counts differ: %d vs %d", len(withSnap.Tenants), len(withoutSnap.Tenants))
	}
	sawShadowOps := false
	for i := range withSnap.Tenants {
		a, b := withSnap.Tenants[i], withoutSnap.Tenants[i]
		if a.Ops != b.Ops || a.Hits != b.Hits || a.BudgetBlocks != b.BudgetBlocks || a.Latency != b.Latency {
			t.Errorf("tenant %s live counters perturbed by shadow: with=%+v without=%+v", a.Tenant, a, b)
		}
		if a.ShadowOps > 0 {
			sawShadowOps = true
		}
		if b.ShadowOps != 0 || b.ShadowHits != 0 {
			t.Errorf("tenant %s reports shadow counters without a shadow policy", b.Tenant)
		}
	}
	if !sawShadowOps {
		t.Error("shadow run scored no traffic")
	}
}

// stripShadowFields decodes a JSONL stream and deletes every shadow-only key,
// so a shadowed stream can be compared structurally against a shadow-less one.
func stripShadowFields(t testing.TB, stream string) []map[string]any {
	t.Helper()
	recs := decodeJSONL(t, stream)
	out := recs[:0]
	for _, rec := range recs {
		if rec["kind"] == "event" && rec["event"] == "shadow_divergence" {
			continue
		}
		for k := range rec {
			if strings.HasPrefix(k, "shadow_") {
				delete(rec, k)
			}
		}
		out = append(out, rec)
	}
	return out
}

func decodeJSONL(t testing.TB, stream string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(stream), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("decoding %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestScenarioRateEvent covers the step-rate event kind: a one-shot rate cut
// mid-run must emit its scenario record and cancel any diurnal schedule in
// force, and the whole thing must survive a checkpoint straddling the events.
func TestScenarioRateEvent(t *testing.T) {
	t.Parallel()
	const doc = `{
		"version": 1,
		"shards": 1,
		"partitions": 4,
		"ops": 24576,
		"warmup": 12000,
		"batch": 1024,
		"report": 4,
		"cache": {"size_mb": 1, "ways": 8},
		"train": {"k": 4, "seed": 1, "max_iters": 5, "max_samples": 2000, "lloyd_iters": 2, "shot": 128},
		"scenario": {"events": [
			{"batch": 4, "kind": "diurnal", "tenant": "a", "rate": 20000, "amp": 0.5, "period": 8},
			{"batch": 16, "kind": "rate", "tenant": "a", "rate": 5000}
		]},
		"tenants": [
			{
				"name": "a",
				"custom": {"Name": "a-ws", "TotalPages": 256, "Clusters": [{"CenterPage": 100, "Spread": 30}], "WriteFrac": 0.2},
				"seed": 1, "rate": 20000, "share": 0.6
			},
			{
				"name": "b",
				"custom": {"Name": "b-ws", "TotalPages": 256, "Clusters": [{"CenterPage": 100, "Spread": 30}], "WriteFrac": 0.2},
				"seed": 2, "rate": 10000, "offset_pages": 65536, "share": 0.4
			}
		]
	}`
	spec, err := serve.ParseSpec([]byte(doc))
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
	for _, want := range []string{`"event":"diurnal"`, `"event":"rate"`, `"rate_per_sec":5000`} {
		if !bytes.Contains(full.Bytes(), []byte(want)) {
			t.Errorf("stream lacks %s", want)
		}
	}

	// Checkpoint at batch 8: the diurnal schedule is live across the
	// boundary (its per-batch rates must be replayed), the rate cut lands
	// after it.
	spec2, err := serve.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var pre bytes.Buffer
	sess2, err := serve.Open(spec2, &pre)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sess2.Step(8); err != nil || n != 8 {
		t.Fatalf("Step(8) = %d, %v", n, err)
	}
	var ckpt bytes.Buffer
	if err := sess2.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	var post bytes.Buffer
	resumed, err := serve.Resume(bytes.NewReader(ckpt.Bytes()), &post)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	concat := append(append([]byte(nil), pre.Bytes()...), post.Bytes()...)
	if !bytes.Equal(concat, full.Bytes()) {
		t.Errorf("checkpoint-resumed stream diverges from the uninterrupted run (%d vs %d bytes)", len(concat), full.Len())
	}
	if !reflect.DeepEqual(snap, snapFull) {
		t.Error("resumed final snapshot differs from the uninterrupted run")
	}
}

// TestClosedLoopFeedback demonstrates that the closed loop actually closes:
// with two tenants whose open-loop rates differ 5×, unbounded open-loop
// arrivals keep the 5:1 interleaving, while closed-loop clients gate their
// next arrival on simulated completion latency — under saturation the
// think-time term vanishes and the mix collapses toward the user-population
// ratio. The per-tenant ops split must differ measurably between the modes.
func TestClosedLoopFeedback(t *testing.T) {
	t.Parallel()
	const doc = `{
		"version": 1,
		"shards": 1,
		"partitions": 4,
		"ops": 16384,
		"warmup": 12000,
		"batch": 1024,
		"report": 4,
		"cache": {"size_mb": 1, "ways": 8},
		"train": {"k": 4, "seed": 1, "max_iters": 5, "max_samples": 2000, "lloyd_iters": 2, "shot": 128},
		"tenants": [
			{
				"name": "hot",
				"custom": {"Name": "hot-ws", "TotalPages": 256, "Clusters": [{"CenterPage": 100, "Spread": 30}], "WriteFrac": 0.2},
				"seed": 1, "rate": 5000000, "share": 0.5
			},
			{
				"name": "cold",
				"custom": {"Name": "cold-ws", "TotalPages": 256, "Clusters": [{"CenterPage": 100, "Spread": 30}], "WriteFrac": 0.2},
				"seed": 2, "rate": 1000000, "offset_pages": 65536, "share": 0.5
			}
		]
	}`
	open, err := serve.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	closed, err := serve.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	closed.Clients = &serve.ClientsSpec{Users: 2}

	tenantOps := func(spec serve.Spec) map[string]uint64 {
		sess, err := serve.Open(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]uint64, len(snap.Tenants))
		for _, ts := range snap.Tenants {
			out[ts.Tenant] = ts.Ops
		}
		return out
	}
	openOps := tenantOps(open)
	closedOps := tenantOps(closed)

	if openOps["hot"] == 0 || closedOps["hot"] == 0 {
		t.Fatalf("missing tenant ops: open=%v closed=%v", openOps, closedOps)
	}
	openFrac := float64(openOps["hot"]) / float64(openOps["hot"]+openOps["cold"])
	closedFrac := float64(closedOps["hot"]) / float64(closedOps["hot"]+closedOps["cold"])
	if openFrac <= closedFrac {
		t.Errorf("closed loop did not feed back: hot tenant fraction open=%.3f closed=%.3f (want open > closed)", openFrac, closedFrac)
	}
	if openFrac-closedFrac < 0.05 {
		t.Errorf("closed-loop arrival mix barely moved: open=%.3f closed=%.3f", openFrac, closedFrac)
	}
}
