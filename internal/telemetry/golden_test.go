package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// elasticSpec loads the committed 3-tenant elastic scenario — the same
// document behind cmd/icgmm-serve's golden test and the serve package's
// session fixture — pinned to a shard count.
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

// TestGoldenEquivalence is the determinism acceptance test for the whole
// telemetry layer: the pinned 3-tenant elastic scenario runs with telemetry
// fully on — registry publishes every batch, event observer, trace stream,
// debug server scraped concurrently the entire time, plus a checkpoint and
// resume in the middle — and its metric JSONL must be byte-identical to the
// committed golden produced with telemetry off, at shards 1, 2 and 8.
func TestGoldenEquivalence(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "tenant_golden.jsonl"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	for _, shards := range []int{1, 2, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			got, trace := runInstrumented(t, shards)
			if !bytes.Equal(got, golden) {
				t.Errorf("telemetry-on JSONL diverges from telemetry-off golden (%d vs %d bytes)",
					len(got), len(golden))
			}
			checkTrace(t, trace)
		})
	}
}

// runInstrumented runs the elastic scenario with every telemetry hook
// engaged and returns the metric JSONL and the trace stream.
func runInstrumented(t *testing.T, shards int) (metrics, trace []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf)
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Scrapers hammer /metrics and /status for the whole run: live reads
	// must never perturb the stream.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/status"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					continue // server closing down
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}("http://" + srv.Addr() + path)
	}
	defer func() { close(stop); wg.Wait() }()

	const name = "golden"
	drive := func(sess *serve.Session, until uint64) {
		t.Helper()
		sess.Observe(telemetry.SessionObserver(reg, tracer, name))
		for !sess.Done() && (until == 0 || sess.Batches() < until) {
			if _, err := sess.Step(1); err != nil {
				t.Fatal(err)
			}
			reg.PublishProgress(name, sess.Batches(), sess.Done())
			if sess.Batches()%4 == 0 {
				reg.PublishSnapshot(name, sess.Metrics())
			}
		}
	}

	var pre bytes.Buffer
	sess, err := serve.Open(elasticSpec(t, shards), &pre)
	if err != nil {
		t.Fatal(err)
	}
	drive(sess, 72)
	var ckpt bytes.Buffer
	if err := sess.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	reg.RecordCheckpoint(name, sess.Batches())

	var post bytes.Buffer
	resumed, err := serve.Resume(bytes.NewReader(ckpt.Bytes()), &post)
	if err != nil {
		t.Fatal(err)
	}
	drive(resumed, 0)
	if _, err := resumed.Run(); err != nil { // emits the final records
		t.Fatal(err)
	}
	reg.PublishSnapshot(name, resumed.Metrics())

	// The registry saw the run: final scrape must expose per-tenant series.
	body := string(reg.RenderPrometheus())
	for _, want := range []string{"icgmm_session_batches_total", "icgmm_tenant_hit_ratio", "icgmm_events_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics missing %s:\n%s", want, body)
		}
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), pre.Bytes()...), post.Bytes()...), traceBuf.Bytes()
}

// checkTrace validates the trace stream: every line one well-formed
// wall-clock-stamped event, and the scenario's known transitions present.
func checkTrace(t *testing.T, trace []byte) {
	t.Helper()
	kinds := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var ev telemetry.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.TimeUnixNs == 0 || ev.Kind == "" {
			t.Fatalf("unstamped trace event %+v", ev)
		}
		kinds[ev.Kind]++
	}
	// The elastic scenario drifts, refreshes, transfers one share (batch 80,
	// in the resumed half after the batch-72 checkpoint), and we
	// checkpointed once.
	for _, want := range []string{serve.EventDrift, serve.EventRefresh, serve.EventShare, serve.EventCheckpoint} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events (kinds: %v)", want, kinds)
		}
	}
}
