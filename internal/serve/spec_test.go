package serve_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// minSpec is a small, fully valid spec used as the base of the table tests:
// warmup/window/shot sized so warm-up validation passes quickly.
func minSpec() string {
	return `{
	 "version": 1,
	 "ops": 4096, "warmup": 16000, "batch": 1024,
	 "train": {"k": 4, "shot": 128}
	}`
}

func TestParseSpecDefaults(t *testing.T) {
	t.Parallel()
	s, err := serve.ParseSpec([]byte(minSpec()))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	// Omitted fields take the legacy CLI flag defaults.
	if cfg.Partitions != 16 || cfg.Cache.SizeBytes != 64<<20 || cfg.Cache.Ways != 8 {
		t.Errorf("geometry defaults wrong: %+v", cfg)
	}
	if cfg.Train.Seed != 1 || cfg.Train.MaxIters != 50 || cfg.Train.MaxSamples != 20000 {
		t.Errorf("train defaults wrong: %+v", cfg.Train)
	}
	if cfg.Transform.LenWindow != 32 || cfg.Transform.LenAccessShot != 128 {
		t.Errorf("transform wrong: %+v", cfg.Transform)
	}
	if cfg.ReportEvery != 16 || cfg.SSDChannels != 8 || cfg.SSD.Name != "tlc" {
		t.Errorf("serve defaults wrong: %+v", cfg)
	}
	if s.EffectiveOps() != 4096 || s.EffectiveWarmup() != 16000 {
		t.Errorf("effective ops/warmup wrong: %d/%d", s.EffectiveOps(), s.EffectiveWarmup())
	}
}

func TestParseSpecFieldPathErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		in   string
		path string
	}{
		"top-level typo": {
			in:   `{"version":1,"shrads":4}`,
			path: "spec.shrads",
		},
		"nested typo": {
			in:   `{"version":1,"train":{"k":4,"max_itres":10}}`,
			path: "spec.train.max_itres",
		},
		"tenant typo carries its index": {
			in: `{"version":1,
			 "tenants":[
			  {"name":"a","workload":"dlrm","rate":1e6,"share":0.4},
			  {"name":"b","workload":"dlrm","rate":1e6,"share":0.4,"sahre":0.4}
			 ]}`,
			path: "spec.tenants[1].sahre",
		},
		"qos typo": {
			in: `{"version":1,
			 "tenants":[{"name":"a","workload":"dlrm","rate":1e6,"share":0.4,
			  "qos":{"metric":"hit_ratio","targett":0.7}}]}`,
			path: "spec.tenants[0].qos.targett",
		},
		"removed link key": {
			in:   `{"version":1,"device":{"link":{"one_way_ns":150,"flit_bytes":64}}}`,
			path: "spec.device.link.flit_bytes",
		},
	}
	for name, tc := range cases {
		_, err := serve.ParseSpec([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.path) {
			t.Errorf("%s: error %q does not carry field path %q", name, err, tc.path)
		}
	}
}

// TestParseTenantSpecsFieldPath is the regression test for the strict
// tenant decoder: inside an otherwise valid spec, a typo'd tenant key must
// be rejected with its full path, not a bare field name (and never silently
// ignored).
func TestParseTenantSpecsFieldPath(t *testing.T) {
	t.Parallel()
	const tenants = `[{"name":"a","workload":"dlrm","rate":1e6,"share":0.5},
		  {"name":"b","workload":"dlrm","rate":1e6,"share":0.5%s}]`
	if _, err := serve.ParseSpec(tenantSpecDoc(fmt.Appendf(nil, tenants, ""))); err != nil {
		t.Fatalf("spec without the typo rejected: %v", err)
	}
	_, err := serve.ParseSpec(tenantSpecDoc(fmt.Appendf(nil, tenants, `,"sahre":0.5`)))
	if err == nil {
		t.Fatal("typo'd tenant key accepted")
	}
	if !strings.Contains(err.Error(), "spec.tenants[1].sahre") {
		t.Errorf("error %q does not carry the field path", err)
	}
}

func TestParseSpecRejects(t *testing.T) {
	t.Parallel()
	bad := map[string]string{
		"missing version":       `{"ops":4096,"warmup":16000,"train":{"shot":128}}`,
		"future version":        `{"version":2,"ops":4096,"warmup":16000,"train":{"shot":128}}`,
		"workload and tenants":  `{"version":1,"warmup":16000,"train":{"shot":128},"workload":{"name":"dlrm"},"tenants":[{"name":"a","workload":"dlrm","rate":1,"share":0.5}]}`,
		"unknown workload":      `{"version":1,"warmup":16000,"train":{"shot":128},"workload":{"name":"nope"}}`,
		"unknown mode":          `{"version":1,"warmup":16000,"train":{"shot":128},"mode":"lru"}`,
		"unknown ssd":           `{"version":1,"warmup":16000,"train":{"shot":128},"cache":{"ssd":"mlc"}}`,
		"unknown refresh":       `{"version":1,"warmup":16000,"train":{"shot":128},"refresh":{"mode":"maybe"}}`,
		"async refresh":         `{"version":1,"warmup":16000,"train":{"shot":128},"refresh":{"mode":"async"}}`,
		"bad duration":          `{"version":1,"warmup":16000,"train":{"shot":128},"duration":"soon"}`,
		"bad report":            `{"version":1,"warmup":16000,"train":{"shot":128},"report":-2}`,
		"warmup too short":      `{"version":1,"warmup":1000,"train":{"shot":2000}}`,
		"bad burst":             `{"version":1,"warmup":16000,"train":{"shot":128},"workload":{"burst":1.5}}`,
		"bad floor frac":        `{"version":1,"warmup":16000,"train":{"shot":128},"control":{"share_floor_rate_frac":1.5}}`,
		"indivisible partition": `{"version":1,"warmup":16000,"train":{"shot":128},"partitions":7}`,
		"trailing data":         `{"version":1,"warmup":16000,"train":{"shot":128}} extra`,
		"negative cache size":   `{"version":1,"warmup":16000,"train":{"shot":128},"cache":{"size_mb":-1}}`,
	}
	for name, in := range bad {
		if _, err := serve.ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}

// TestSpecRoundTrip: Marshal and ParseSpec are lossless inverses for a spec
// exercising every section, including pointer-valued fields like the
// explicit zero share_cooldown.
func TestSpecRoundTrip(t *testing.T) {
	t.Parallel()
	in := `{
	 "version": 1, "shards": 4, "partitions": 8, "ops": 163840, "warmup": 30000,
	 "batch": 1024, "report": 16, "mode": "gmm-caching-eviction",
	 "output": "metrics.jsonl",
	 "cache": {"size_mb": 4, "ways": 8, "ssd": "slc", "ssd_channels": 4},
	 "train": {"k": 8, "seed": 3, "max_iters": 10, "max_samples": 4000,
	  "lloyd_iters": 2, "window": 32, "shot": 256, "threshold_pct": 0.05},
	 "refresh": {"mode": "sync", "window": 8192, "min": 2048,
	  "drift_delta": 0.08, "drift_sustain": 8, "drift_warmup": 8, "drift_alpha": 0.2},
	 "control": {"every": 8, "step": 1.6, "min_mult": 0.0625, "max_mult": 16,
	  "share_adapt": true, "share_quantum": 8, "share_hold": 2,
	  "share_cooldown": 0, "share_floor": 8, "share_floor_rate_frac": 0.5},
	 "tenants": [
	  {"name": "a", "workload": "dlrm", "seed": 1, "rate": 15000, "share": 0.5,
	   "qos": {"metric": "hit_ratio", "target": 0.75, "band": 0.1}},
	  {"name": "b", "workload": "memtier", "seed": 2, "rate": 9000, "share": 0.3}
	 ]
	}`
	s, err := serve.ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Control.ShareCooldown == nil || *s.Control.ShareCooldown != 0 {
		t.Fatalf("explicit zero share_cooldown not preserved: %+v", s.Control)
	}
	out, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := serve.ParseSpec(out)
	if err != nil {
		t.Fatalf("re-parsing marshalled spec: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(s, again) {
		t.Errorf("round trip changed the spec:\n%+v\n%+v", s, again)
	}
}

// TestSpecConfigMatchesHandBuilt: the committed elastic scenario spec builds
// exactly the configuration the golden test constructs by hand, field for
// field — the guarantee behind `icgmm-serve -spec` reproducing the golden
// run.
func TestSpecConfigMatchesHandBuilt(t *testing.T) {
	t.Parallel()
	spec := elasticSpec(t, 1)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := tenantConfig(1)
	// The hand-built config leaves Train zero-fields for gmm to sanitize;
	// the spec path resolves the same defaults eagerly. Compare effective
	// values.
	want.Train.Tol = cfg.Train.Tol
	want.Train.CovReg = cfg.Train.CovReg
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("spec-built config diverges from the golden test's:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestSpecEffectiveDefaults pins the omitted-field defaults that don't
// surface through Config: the ops/warmup bounds and the single-stream
// generator fallbacks.
func TestSpecEffectiveDefaults(t *testing.T) {
	t.Parallel()
	s, err := serve.ParseSpec([]byte(`{"version":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.EffectiveOps() != 2_000_000 || s.EffectiveWarmup() != 200_000 {
		t.Errorf("effective defaults = %d/%d, want 2000000/200000", s.EffectiveOps(), s.EffectiveWarmup())
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	// The two places the CLI flag defaults diverge from serve.DefaultConfig.
	if cfg.Train.K != 64 || cfg.Transform.LenAccessShot != 2000 {
		t.Errorf("flag-default divergences not applied: K=%d shot=%d", cfg.Train.K, cfg.Transform.LenAccessShot)
	}
	// Training against the default spec resolves the dlrm generator with the
	// training seed.
	if _, err := serve.TrainBundleFromSpec(serve.Spec{Version: 99}); err == nil {
		t.Error("TrainBundleFromSpec accepted an invalid spec")
	}
	// "tenants": [] normalizes to the absent form, keeping Marshal/ParseSpec
	// lossless (omitempty drops an empty array on re-marshal).
	e, err := serve.ParseSpec([]byte(`{"version":1,"warmup":16000,"train":{"shot":128},"tenants":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Tenants != nil {
		t.Errorf("empty tenants array not normalized to nil: %#v", e.Tenants)
	}
	out, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := serve.ParseSpec(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, again) {
		t.Error("empty-tenants spec does not round trip")
	}
}
