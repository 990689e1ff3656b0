package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// writeSpec drops a spec document into a temp dir and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIRequiresSpec: with the legacy flags gone, -spec is the interface;
// an empty invocation must say so and point at the migration note.
func TestCLIRequiresSpec(t *testing.T) {
	err := cliMain(nil)
	if err == nil {
		t.Fatal("empty invocation accepted")
	}
	if !strings.Contains(err.Error(), "-spec is required") {
		t.Errorf("error does not require -spec: %v", err)
	}
	if !strings.Contains(err.Error(), "removed in PR 6") {
		t.Errorf("error does not mention the flag removal: %v", err)
	}
}

// TestCLIRejectsUnknownFlagAndArgs: a flag that never existed still gets the
// stock parse error, and stray positional arguments are refused.
func TestCLIRejectsUnknownFlagAndArgs(t *testing.T) {
	if err := cliMain([]string{"-frobnicate"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := cliMain([]string{"-spec", "run.json", "extra"}); err == nil || !strings.Contains(err.Error(), `"extra"`) {
		t.Errorf("positional argument not refused: %v", err)
	}
}

// TestCLIHelp: -h prints usage and exits cleanly rather than erroring.
func TestCLIHelp(t *testing.T) {
	if err := cliMain([]string{"-h"}); err != nil {
		t.Errorf("-h returned %v", err)
	}
}

// TestCLIMissingAndMalformedSpec: unreadable files and documents that fail
// validation surface as errors, not silent defaults.
func TestCLIMissingAndMalformedSpec(t *testing.T) {
	if err := cliMain([]string{"-spec", "/nonexistent/run.json"}); err == nil {
		t.Error("missing spec file accepted")
	}
	// Unknown field: the strict decoder names the path.
	err := cliMain([]string{"-spec", writeSpec(t, `{"version": 1, "sahre": 2}`)})
	if err == nil || !strings.Contains(err.Error(), "sahre") {
		t.Errorf("unknown spec field not named: %v", err)
	}
	// Valid JSON, invalid run: warm-up too short for one access shot.
	err = cliMain([]string{"-spec", writeSpec(t, `{
	 "version": 1, "ops": 1024, "warmup": 40000, "output": "/dev/null",
	 "train": {"k": 8, "shot": 2000}
	}`)})
	if err == nil {
		t.Fatal("short warm-up accepted")
	}
	if !strings.Contains(err.Error(), "access shot") {
		t.Errorf("error does not explain the access-shot constraint: %v", err)
	}
}

// TestCLIRejectsStarvedTenantWarmup: the per-tenant warm-up validation must
// error through the spec path, naming the tenant whose rate share leaves
// unseen timestamp stripes.
func TestCLIRejectsStarvedTenantWarmup(t *testing.T) {
	err := cliMain([]string{"-spec", writeSpec(t, `{
	 "version": 1, "ops": 1024, "warmup": 200000, "output": "/dev/null",
	 "train": {"k": 8, "shot": 500},
	 "tenants": [
	  {"name": "whale", "workload": "dlrm", "seed": 1, "rate": 990000, "share": 0.5},
	  {"name": "starved", "workload": "memtier", "seed": 2, "rate": 10000, "share": 0.5}
	 ]
	}`)})
	if err == nil {
		t.Fatal("starved tenant accepted")
	}
	if !strings.Contains(err.Error(), `"starved"`) {
		t.Errorf("error does not name the starved tenant: %v", err)
	}
}

// TestCLIOverrides: -out and -shards are the only overrides left, and they
// apply only when set — a bare -spec run keeps the document's values. Probed
// via the removed-output path: overriding -out to an unwritable directory
// must fail at sink creation, proving the override took.
func TestCLIOverrides(t *testing.T) {
	doc := writeSpec(t, `{"version": 1, "ops": 1024, "warmup": 40000, "output": "/dev/null",
	 "train": {"k": 8, "shot": 2000}}`)
	// Short warm-up fails validation before the sink opens, with or without
	// overrides; a bogus -shards must not change the error.
	err1 := cliMain([]string{"-spec", doc})
	err2 := cliMain([]string{"-spec", doc, "-shards", "3", "-out", "/nonexistent/dir/out.jsonl"})
	if err1 == nil || err2 == nil {
		t.Fatal("short warm-up accepted")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("meta overrides changed the validation error: %v vs %v", err1, err2)
	}
}

// TestSpecReproducesGoldenRun is the CLI-level acceptance check: running the
// committed spec-elastic.json through the real entry point must reproduce
// the PR-4 golden JSONL byte for byte — and a -shards override must not
// change a byte of it.
func TestSpecReproducesGoldenRun(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "metrics.jsonl")
	if err := cliMain([]string{"-spec", "testdata/spec-elastic.json", "-out", outPath, "-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "tenant_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-spec run diverges from the golden JSONL (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCommittedSpecsParse: the testdata specs the Makefile smokes run must
// stay loadable and valid.
func TestCommittedSpecsParse(t *testing.T) {
	for _, path := range []string{
		"testdata/spec-smoke.json",
		"testdata/spec-tenants.json",
		"testdata/spec-elastic.json",
		"testdata/spec-telemetry.json",
		"testdata/spec-q16.json",
		"testdata/spec-scenario.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := serve.ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
