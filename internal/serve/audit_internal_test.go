package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// auditResidency cross-checks every partition's three residency views after
// a batch boundary: the policy's per-tenant counters, its owner map, and the
// cache's actual valid blocks. Any drift between them means a tenant is
// being charged for blocks it does not hold (or holding blocks it is not
// charged for) — exactly the failure mode a refresh rescore or a share
// resize could introduce silently.
func auditResidency(s *Service) error {
	for pi, p := range s.parts {
		if err := p.pol.checkShares(); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		counts := make([]int, len(s.tenants))
		scanned := 0
		var orphan error
		p.cache.Scan(func(set, way int, page uint64, _ bool) {
			scanned++
			if o := p.pol.owner[set][way]; o < 0 {
				orphan = fmt.Errorf("partition %d: page %d at (%d,%d) valid in cache but unowned", pi, page, set, way)
			} else {
				counts[o]++
			}
		})
		if orphan != nil {
			return orphan
		}
		owned := 0
		for si := range p.pol.owner {
			for _, o := range p.pol.owner[si] {
				if o >= 0 {
					owned++
				}
			}
		}
		if owned != scanned {
			return fmt.Errorf("partition %d: owner map holds %d blocks, cache holds %d", pi, owned, scanned)
		}
		for ti := range counts {
			if counts[ti] != p.pol.Resident(ti) {
				return fmt.Errorf("partition %d tenant %d: cache-derived count %d != resident counter %d",
					pi, ti, counts[ti], p.pol.Resident(ti))
			}
		}
	}
	return nil
}

// auditAccounting checks op conservation in every partition: each served
// request is recorded exactly once, in its tenant's accounting cell, and
// every view derived from the cells agrees with the device's own counters.
// Per partition, the sojourn histogram counts what its cells count, which is
// cache hits + misses + host-routed ops; the cells' hits (their HBM
// histograms' counts) are the cache hits plus the host-routed ops (served
// from host DRAM, counted as hits); every request's device time lands in the
// HBM or the SSD histogram; and the device-routed requests — the cache's
// hits and misses, which under dataflow timing are the requests the
// timeline issued — each cross the link once. Host ops derive as the
// requests the timeline did not issue, zero under flat timing, where the op
// check therefore requires every request to be a cache hit or miss.
func auditAccounting(s *Service) error {
	for pi, p := range s.parts {
		cs := p.cache.Stats()
		var ops, hits, linked int64
		for ti := range p.ten {
			cell := &p.ten[ti]
			n := cell.hist.Count()
			ops += n
			hits += cell.hbmHist.Count()
			linked += cell.cxlHist.Count()
			if d := cell.hbmHist.Count() + cell.ssdHist.Count(); d != n {
				return fmt.Errorf("partition %d tenant %d: %d HBM+SSD device times for %d requests", pi, ti, d, n)
			}
		}
		hostOps := p.hostOps()
		if got := p.hist.Count(); got != ops {
			return fmt.Errorf("partition %d: histogram counts %d ops, its cells %d", pi, got, ops)
		}
		if want := int64(cs.Hits + cs.Misses + hostOps); ops != want {
			return fmt.Errorf("partition %d: cells count %d ops, cache hits+misses+host ops = %d", pi, ops, want)
		}
		if want := int64(cs.Hits + hostOps); hits != want {
			return fmt.Errorf("partition %d: cells count %d hits, cache hits+host ops = %d", pi, hits, want)
		}
		if want := int64(cs.Hits + cs.Misses); linked != want {
			return fmt.Errorf("partition %d: %d link round trips, cache hits+misses = %d", pi, linked, want)
		}
		if p.df != nil && linked != int64(p.df.Timeline.Issued()) {
			return fmt.Errorf("partition %d: %d link round trips, timeline issued %d", pi, linked, p.df.Timeline.Issued())
		}
	}
	return nil
}

// TestResidencyAuditAcrossRefreshAndResize is the share/residency audit: a
// 3-tenant run with a mid-run working-set shift (sync refresh + resident
// rescore), elastic shares enabled, and one forced share resize, audited
// after every single batch. The owner map, the residency counters and the
// cache contents must agree at every batch boundary of the run, and so must
// the accounting (auditAccounting).
func TestResidencyAuditAcrossRefreshAndResize(t *testing.T) {
	t.Parallel()
	specs := []TenantSpec{
		{
			Name: "alpha",
			Custom: &workload.CustomConfig{
				Name: "alpha-ws", TotalPages: 400,
				Clusters:  []workload.ClusterSpec{{CenterPage: 100, Spread: 30}},
				WriteFrac: 0.2,
			},
			Seed: 1, RatePerSec: 15e3, Share: 0.5,
			QoS: &QoSSpec{Metric: QoSHitRatio, Target: 0.75, Band: 0.10},
		},
		{
			Name: "beta",
			Custom: &workload.CustomConfig{
				Name: "beta-ws", TotalPages: 2048,
				Clusters:  []workload.ClusterSpec{{CenterPage: 500, Spread: 120}},
				WriteFrac: 0.1,
			},
			Seed: 2, RatePerSec: 9e3, OffsetPages: 1 << 16, Share: 0.3,
			QoS: &QoSSpec{Metric: QoSMeanNs, Target: 200e3, Band: 0.30},
		},
		{
			Name: "gamma",
			Custom: &workload.CustomConfig{
				Name: "gamma-ws", TotalPages: 192,
				Clusters:  []workload.ClusterSpec{{CenterPage: 100, Spread: 25}},
				WriteFrac: 0.3,
			},
			Seed: 3, RatePerSec: 6e3, OffsetPages: 1 << 17, Share: 0.2,
			ShiftAfter: 8 * 1024, ShiftOffsetPages: 1 << 18,
			QoS: &QoSSpec{Metric: QoSHitRatio, Target: 0.40, Band: 0.15},
		},
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Partitions = 4
	cfg.Cache = cache.Config{SizeBytes: 2 << 20, BlockBytes: trace.PageSize, Ways: 8}
	cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000, LloydIters: 2}
	cfg.Transform.LenAccessShot = 256
	cfg.BatchSize = 1024
	cfg.ReportEvery = 0
	cfg.Tenants = specs
	cfg.Control = ControlConfig{
		Every: 8, Step: 1.6, MinMult: 1.0 / 16, MaxMult: 16,
		ShareAdapt: true, ShareQuantum: 4, ShareHold: 2, ShareCooldown: 2, ShareFloor: 4,
	}
	cfg.Refresh.Mode = RefreshSync
	cfg.Refresh.Drift = DriftConfig{Delta: 0.08, Sustain: 8, Warmup: 8, Alpha: 0.2}
	cfg.Refresh.WindowSamples = 8192
	cfg.Refresh.MinSamples = 2048

	warmMux, err := NewTenantMux(specs)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := TrainBundle(warmMux.Trace(30_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(cfg, bundle)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewTenantMux(specs)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMuxSource(mux, 96*1024)
	buf := make([]Request, cfg.BatchSize)
	for {
		n := src.Next(buf)
		if n == 0 {
			break
		}
		if err := svc.processBatch(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if err := auditResidency(svc); err != nil {
			t.Fatalf("batch %d: %v", svc.batches, err)
		}
		if err := auditAccounting(svc); err != nil {
			t.Fatalf("batch %d: %v", svc.batches, err)
		}
		// A forced mid-run resize (beyond whatever the controller does on
		// its own) pins the shrink path even if this configuration's
		// controller never transfers naturally.
		if svc.batches == 20 {
			svc.transferShare(0, 2, 4)
			if err := auditResidency(svc); err != nil {
				t.Fatalf("after forced resize: %v", err)
			}
		}
	}
	if svc.refresher.installed == 0 {
		t.Error("no refresh installed; the audit lost its rescore coverage")
	}
	// End the run with the cache's own structural invariants on top of the
	// per-batch agreement checks.
	for pi, p := range svc.parts {
		if err := p.cache.CheckInvariants(); err != nil {
			t.Errorf("partition %d: %v", pi, err)
		}
	}
}

// TestAccountingAuditDataflow runs the committed dataflow spec — host-routed
// pages, the cxl link and the fpga timeline — and audits op conservation at
// every batch boundary: the host-routed requests that bypass the cache must
// still be counted once each, as hits.
func TestAccountingAuditDataflow(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "icgmm-serve", "testdata", "spec-dataflow.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		n, err := sess.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if err := auditAccounting(sess.svc); err != nil {
			t.Fatalf("batch %d: %v", sess.svc.batches, err)
		}
	}
	var hostOps uint64
	for _, p := range sess.svc.parts {
		hostOps += p.hostOps()
	}
	if hostOps == 0 {
		t.Fatal("no request was host-routed; the audit lost its host-path coverage")
	}
}
