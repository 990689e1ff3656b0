package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIArgErrors: the coordinator refuses to run without a spec, with
// stray positionals, or with an unreadable document.
func TestCLIArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cliMain(nil, &out); err == nil || !strings.Contains(err.Error(), "-spec is required") {
		t.Errorf("empty invocation: %v", err)
	}
	if err := cliMain([]string{"-spec", "c.json", "stray"}, &out); err == nil || !strings.Contains(err.Error(), "worker") {
		t.Errorf("stray positional not pointed at the worker subcommand: %v", err)
	}
	if err := cliMain([]string{"-spec", "/nonexistent/c.json"}, &out); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := cliMain([]string{"-h"}, &out); err != nil {
		t.Errorf("-h returned %v", err)
	}
}

// TestCLIRejectsBadSpec: strict decoding and validation surface through the
// command with their field paths intact.
func TestCLIRejectsBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, []byte(`{"version": 1, "workrs": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := cliMain([]string{"-spec", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "cluster.workrs") {
		t.Errorf("unknown field not named by path: %v", err)
	}
}

// TestCLISampleRunsAndVerifies drives the committed sample spec — forced
// migration and forced kill included — through the full command with
// in-process workers, and lets -verify assert the byte-identity contract.
// The spawned-process path is covered by the Makefile's `smoke` target
// (it needs the built binary on disk).
func TestCLISampleRunsAndVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster run")
	}
	dir := t.TempDir()
	mergedPath := filepath.Join(dir, "merged.jsonl")
	sessionDir := filepath.Join(dir, "sessions")
	var out bytes.Buffer
	err := cliMain([]string{
		"-spec", "testdata/cluster-sample.json",
		"-merged", mergedPath,
		"-session-dir", sessionDir,
		"-local", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Error("merged stream empty")
	}
	for _, name := range []string{"tenants", "stream"} {
		data, err := os.ReadFile(filepath.Join(sessionDir, name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("per-session stream %q empty", name)
		}
	}
}
