package serve_test

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

// FuzzServeSpec fuzzes the declarative run-spec wire format: arbitrary bytes
// must never panic, and every accepted document must satisfy the Spec
// invariants (supported version, workload/tenants exclusion, a buildable
// configuration) and survive a Marshal/ParseSpec round trip unchanged — the
// lossless-wire-format guarantee the distributed-run story leans on.
func FuzzServeSpec(f *testing.F) {
	f.Add([]byte(`{"version":1,"ops":4096,"warmup":16000,"train":{"k":4,"shot":128}}`))
	f.Add([]byte(`{"version":1,"warmup":16000,"train":{"shot":128},
	 "workload":{"name":"parsec","rate":-1,"burst":0.5,"drift":true}}`))
	f.Add([]byte(`{"version":1,"warmup":16000,"shards":4,"partitions":8,"batch":1024,"report":-1,
	 "mode":"gmm-eviction-only","cache":{"size_mb":4,"ways":8,"ssd":"slc","ssd_channels":4},
	 "train":{"k":8,"seed":3,"max_iters":10,"max_samples":-1,"lloyd_iters":2,"shot":128,"threshold_pct":0.05},
	 "refresh":{"mode":"sync","window":8192,"min":2048,"drift_delta":0.08,"drift_sustain":8,"drift_warmup":8,"drift_alpha":0.2},
	 "control":{"every":8,"step":1.6,"min_mult":0.0625,"max_mult":16,"share_adapt":true,
	  "share_quantum":8,"share_hold":2,"share_cooldown":0,"share_floor":8,"share_floor_rate_frac":0.5},
	 "tenants":[{"name":"a","workload":"dlrm","seed":1,"rate":15000,"share":0.5,
	  "qos":{"metric":"hit_ratio","target":0.75,"band":0.1}}]}`))
	f.Add([]byte(`{"version":1,"duration":"10s","output":"m.jsonl","warmup":16000,"train":{"shot":128}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"shrads":4}`))
	f.Add([]byte(`{"version":1,"warmup":16000,"train":{"shot":128},"workload":{"name":"dlrm"},
	 "tenants":[{"name":"a","workload":"dlrm","rate":1,"share":0.5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := serve.ParseSpec(data)
		if err != nil {
			return
		}
		if spec.Version != serve.SpecVersion {
			t.Fatalf("accepted unsupported version %d", spec.Version)
		}
		if spec.Workload != nil && len(spec.Tenants) > 0 {
			t.Fatalf("accepted spec with both workload and tenants: %s", data)
		}
		if _, err := spec.Config(); err != nil {
			t.Fatalf("accepted spec does not build a config: %v", err)
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := serve.ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
		}
	})
}

// FuzzScenarioSpec fuzzes the spec's "scenario", "clients" and "shadow"
// blocks: arbitrary bytes must never panic, every accepted document must
// satisfy the timeline invariants (batches ordered from 1, only known kinds
// against declared tenants, per-kind parameter exclusivity), and the parsed
// spec must survive a Marshal/ParseSpec round trip unchanged — the property
// that lets a scheduled run be shipped to a cluster worker losslessly.
func FuzzScenarioSpec(f *testing.F) {
	const base = `"warmup":16000,"train":{"k":4,"shot":128},
	 "tenants":[{"name":"a","workload":"dlrm","seed":1,"rate":15000,"share":0.5},
	  {"name":"b","workload":"parsec","seed":2,"rate":9000,"share":0.5}]`
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[
	 {"batch":16,"kind":"diurnal","tenant":"a","rate":15000,"amp":0.5,"period":32},
	 {"batch":24,"kind":"leave","tenant":"b"},
	 {"batch":40,"kind":"phase","tenant":"a","workload":"stream"},
	 {"batch":56,"kind":"join","tenant":"b"},
	 {"batch":56,"kind":"rate","tenant":"b","rate":4500}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"clients":{"users":4,"alpha":0.3},
	 "shadow":{"policy":"lstm","hidden":8,"seq_len":4,"epochs":1,"max_examples":96,"divergence":0.05}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[{"batch":0,"kind":"rate","tenant":"a","rate":1}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[
	 {"batch":8,"kind":"leave","tenant":"a"},{"batch":4,"kind":"join","tenant":"a"}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[{"batch":8,"kind":"vanish","tenant":"a"}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[{"batch":8,"kind":"rate","tenant":"zz","rate":1}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[{"batch":8,"kind":"join","tenant":"a"}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[
	 {"batch":8,"kind":"leave","tenant":"a"},{"batch":12,"kind":"leave","tenant":"b"}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[
	 {"batch":8,"kind":"diurnal","tenant":"a","rate":15000,"amp":1.5,"period":1}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"events":[
	 {"batch":8,"kind":"rate","tenant":"a","rate":1,"workload":"stream"}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"clients":{"users":-1}}`))
	f.Add([]byte(`{"version":1,` + base + `,"clients":{"users":4,"alpha":1.5}}`))
	f.Add([]byte(`{"version":1,` + base + `,"shadow":{"policy":"gmm2"}}`))
	f.Add([]byte(`{"version":1,"warmup":16000,"train":{"shot":128},"workload":{"name":"dlrm"},
	 "scenario":{"events":[{"batch":8,"kind":"rate","tenant":"a","rate":1}]}}`))
	f.Add([]byte(`{"version":1,` + base + `,"scenario":{"evnets":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := serve.ParseSpec(data)
		if err != nil {
			return
		}
		if sc := spec.Scenario; sc != nil {
			if len(spec.Tenants) == 0 {
				t.Fatalf("accepted a scenario without tenants: %s", data)
			}
			names := make(map[string]bool, len(spec.Tenants))
			for _, ts := range spec.Tenants {
				names[ts.Name] = true
			}
			var prev uint64
			for i, ev := range sc.Events {
				if ev.Batch < 1 || ev.Batch < prev {
					t.Fatalf("accepted event %d at batch %d after %d: %s", i, ev.Batch, prev, data)
				}
				prev = ev.Batch
				if !names[ev.Tenant] {
					t.Fatalf("accepted event %d against unknown tenant %q", i, ev.Tenant)
				}
				switch ev.Kind {
				case "join", "leave", "rate", "diurnal", "phase":
				default:
					t.Fatalf("accepted event %d with unknown kind %q", i, ev.Kind)
				}
			}
		}
		if c := spec.Clients; c != nil {
			if c.Users < 0 || c.Alpha < 0 || c.Alpha > 1 {
				t.Fatalf("accepted invalid clients block %+v", c)
			}
		}
		if _, err := spec.Config(); err != nil {
			t.Fatalf("accepted spec does not build a config: %v", err)
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := serve.ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
		}
	})
}

// FuzzDeviceSpec fuzzes the spec's "device" block: arbitrary bytes must
// never panic, unknown keys anywhere under "device" (including the nested
// "link" object) must be rejected with a field-path error, and every accepted
// document must build a validated device configuration and survive a
// Marshal/ParseSpec round trip unchanged.
func FuzzDeviceSpec(f *testing.F) {
	const base = `"warmup":16000,"train":{"k":4,"shot":128}`
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"flat"}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"dataflow","outstanding":4,
	 "overlap":false,"tag_compare_cycles":3,"hit_cycles":200,"ssd_read_cycles":10000,
	 "ssd_write_cycles":120000,"inference_cycles":512,"host_pages":4096,"host_latency_ns":90,
	 "link":{"one_way_ns":120,"bytes_per_ns":32}}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"dataflow"}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"warp"}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"outstandng":4}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"link":{"one_way_sn":120}}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"dataflow","hit_cycles":-1}}`))
	f.Add([]byte(`{"version":1,` + base + `,"device":{"timing":"dataflow","host_pages":64,"host_latency_ns":-5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := serve.ParseSpec(data)
		if err != nil {
			return
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("accepted spec does not build a config: %v", err)
		}
		if err := cfg.Device.Validate(); err != nil {
			t.Fatalf("accepted spec builds an invalid device config: %v", err)
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := serve.ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
		}
	})
}

// FuzzTenantSpec fuzzes the spec's tenant-list wire format: the fuzzed bytes
// are the "tenants" value of an otherwise fixed, valid spec, so mutations
// stay inside the list. Arbitrary bytes must never panic, and every accepted
// list must satisfy the documented invariants (unique names, positive rates,
// shares in (0,1] summing to at most 1) and survive a marshal/parse round
// trip of the spec unchanged.
func FuzzTenantSpec(f *testing.F) {
	f.Add([]byte(`[{"name":"a","workload":"dlrm","seed":1,"rate":1e6,"share":0.5}]`))
	f.Add([]byte(`[{"name":"a","workload":"parsec","rate":1,"share":0.3,
	  "qos":{"metric":"hit_ratio","target":0.7,"band":0.2}},
	 {"name":"b","custom":{"Name":"c","TotalPages":64,"Clusters":[{"CenterPage":8,"Spread":2}]},
	  "rate":2,"share":0.7,"burst":0.5,"offset_pages":1048576,"shift_after":100,"shift_offset_pages":4096}]`))
	f.Add([]byte(`[{"name":"g","workload":"dlrm","rate":1,"share":0.2,"shift_after":8192,
	  "shift_custom":{"Name":"grown","TotalPages":480,"Clusters":[{"CenterPage":120,"Spread":55}]}}]`))
	f.Add([]byte(`[{"name":"g","workload":"dlrm","rate":1,"share":0.2,
	  "shift_custom":{"Name":"grown","TotalPages":480,"Clusters":[{"CenterPage":120,"Spread":55}]}}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"share":1e308},{"share":1e308}]`))
	f.Add([]byte(`[{"name":"a","workload":"dlrm","rate":1,"share":"NaN"}]`))
	f.Add([]byte(`{"name":"a"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := serve.ParseSpec(tenantSpecDoc(data))
		if err != nil {
			return
		}
		specs := spec.Tenants
		seen := map[string]bool{}
		var shareSum float64
		for _, ts := range specs {
			if ts.Name == "" || seen[ts.Name] {
				t.Fatalf("accepted spec with missing/duplicate name: %+v", specs)
			}
			seen[ts.Name] = true
			if ts.RatePerSec <= 0 {
				t.Fatalf("accepted non-positive rate: %+v", ts)
			}
			if ts.Share <= 0 || ts.Share > 1 {
				t.Fatalf("accepted share outside (0,1]: %+v", ts)
			}
			if ts.BurstAmp < 0 || ts.BurstAmp >= 1 {
				t.Fatalf("accepted burst outside [0,1): %+v", ts)
			}
			shareSum += ts.Share
		}
		if shareSum > 1+1e-6 {
			t.Fatalf("accepted over-committed shares (sum %v): %s", shareSum, data)
		}
		// Accepted specs are canonical: marshal/parse must be lossless.
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := serve.ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
		}
	})
}

// tenantSpecDoc wraps a tenant list in a minimal valid spec: ParseSpec is
// the only decoder of the tenant-list wire format.
func tenantSpecDoc(tenants []byte) []byte {
	doc := []byte(`{"version":1,"warmup":16000,"train":{"shot":128},"tenants":`)
	doc = append(doc, tenants...)
	return append(doc, '}')
}
