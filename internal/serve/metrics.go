package serve

import (
	"encoding/json"
	"io"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// PartitionSnapshot summarizes one partition (shard-local state).
type PartitionSnapshot struct {
	Partition  int
	Ops        uint64
	Cache      cache.Stats
	SSD        ssd.Stats
	Latency    stats.Summary // sojourn time: queueing + service
	EngineBusy time.Duration
	// LastCompletionNs is the partition's virtual clock at the end of the
	// run; the makespan is the maximum across partitions.
	LastCompletionNs int64
	// Dataflow timing view (all zero under flat timing): requests served
	// from host DRAM, device-routed requests with the mean
	// outstanding-window depth they observed at arrival, arrivals stalled on
	// a full window, and each pipeline module's cumulative busy fraction of
	// the timeline's wall clock.
	HostOps        uint64
	DeviceOps      uint64
	QueueDepthMean float64
	Stalls         uint64
	GMMBusyRatio   float64
	SSDBusyRatio   float64
	CtrlBusyRatio  float64
}

// TenantSnapshot summarizes one tenant, merged across partitions in
// partition order.
type TenantSnapshot struct {
	// Tenant is the spec name ("default" for single-tenant runs).
	Tenant string
	Ops    uint64
	Hits   uint64
	// BytesAdmitted counts cache fills charged to the tenant.
	BytesAdmitted uint64
	// Latency is the end-to-end sojourn distribution; CXL/HBM/SSD break the
	// service time down by component (link round trip, hit device time,
	// miss device time).
	Latency stats.Summary
	CXL     stats.Summary
	HBM     stats.Summary
	SSD     stats.Summary
	// ResidentBlocks / BudgetBlocks are the tenant's cache footprint and
	// capacity share at the end of the run, summed over partitions.
	ResidentBlocks uint64
	BudgetBlocks   uint64
	// Threshold/Mult are the tenant's final admission threshold and the
	// controller's accumulated multiplier.
	Threshold float64
	Mult      float64
	// QoS echoes the spec; QoSValue/WithinQoS report the last completed
	// control interval's measurement (valid only when QoSValid).
	QoS       *QoSSpec
	QoSValue  float64
	WithinQoS bool
	QoSValid  bool
	// Shadow-policy accounting (zero unless the run configures a shadow
	// scorer): the shadow cache's cumulative ops, hits and modeled mean
	// latency over the tenant's device-routed traffic.
	ShadowOps    uint64
	ShadowHits   uint64
	ShadowMeanNs float64
}

// HitRatio returns the tenant's cumulative hit ratio.
func (t *TenantSnapshot) HitRatio() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Ops)
}

// Snapshot is the aggregate view of a run, merged from partitions in
// partition order so it is deterministic at any shard count.
type Snapshot struct {
	Ops     uint64
	Batches uint64
	// Refreshes counts installed refreshed models; RefreshesFailed counts
	// refits that errored (the previous bundle kept serving).
	Refreshes       uint64
	RefreshesFailed uint64
	Cache           cache.Stats
	SSDReads        uint64
	SSDWrites       uint64
	Latency         stats.Summary
	// MakespanNs is the virtual completion time of the whole run;
	// Throughput is Ops divided by it (virtual ops/sec).
	MakespanNs int64
	Throughput float64
	// IntervalThroughputMean/Std summarize per-reporting-interval virtual
	// throughput (Welford over intervals).
	IntervalThroughputMean float64
	IntervalThroughputStd  float64
	// Timing names the device timing backend the run served through
	// ("flat" or "dataflow"); the per-partition dataflow fields are only
	// populated under "dataflow".
	Timing string
	// Shadow reports whether a shadow policy ran alongside the live one
	// (the per-tenant Shadow* fields are only populated when set).
	Shadow     bool
	Partitions []PartitionSnapshot
	// Tenants holds one entry per configured tenant (exactly one for
	// single-tenant runs), in Config.Tenants order.
	Tenants []TenantSnapshot
}

// HitRatio returns the aggregate cache hit ratio.
func (s *Snapshot) HitRatio() float64 { return s.Cache.HitRate() }

// Snapshot merges per-partition state, in partition order, into the
// aggregate view. Safe to call between batches, never concurrently with Run
// or with another Snapshot: it merges into the service's reused histograms.
func (s *Service) Snapshot() *Snapshot {
	snap := &Snapshot{
		Batches:         s.batches,
		Refreshes:       s.refresher.installed,
		RefreshesFailed: s.refresher.failed,
		Timing:          s.cfg.Device.Timing.String(),
		Shadow:          s.cfg.Shadow != nil,
		Partitions:      make([]PartitionSnapshot, len(s.parts)),
	}
	for i, p := range s.parts {
		cs := p.cache.Stats()
		ds := p.dev.Stats()
		ops := uint64(p.hist.Count())
		snap.Ops += ops
		snap.Cache.Hits += cs.Hits
		snap.Cache.Misses += cs.Misses
		snap.Cache.Bypasses += cs.Bypasses
		snap.Cache.Evictions += cs.Evictions
		snap.Cache.WriteBacks += cs.WriteBacks
		snap.Cache.Inserts += cs.Inserts
		snap.SSDReads += ds.Reads
		snap.SSDWrites += ds.Writes
		if p.now > snap.MakespanNs {
			snap.MakespanNs = p.now
		}
		ps := PartitionSnapshot{
			Partition:        i,
			Ops:              ops,
			Cache:            cs,
			SSD:              ds,
			Latency:          p.hist.Summarize(),
			EngineBusy:       time.Duration(p.engineBusy),
			LastCompletionNs: p.now,
			HostOps:          p.hostOps(),
		}
		if p.df != nil {
			ps.DeviceOps = p.df.Timeline.Issued()
			ps.Stalls = p.df.Timeline.Stalls()
			if ps.DeviceOps > 0 {
				ps.QueueDepthMean = float64(p.queueSum()) / float64(ps.DeviceOps)
			}
			if wall := p.df.Timeline.WallCycles(); wall > 0 {
				gmmB, ssdB, ctrlB, _ := p.df.Timeline.Busy()
				ps.GMMBusyRatio = float64(gmmB) / float64(wall)
				ps.SSDBusyRatio = float64(ssdB) / float64(wall)
				ps.CtrlBusyRatio = float64(ctrlB) / float64(wall)
			}
		}
		snap.Partitions[i] = ps
	}
	// Every request belongs to exactly one tenant, so the merge of the tenant
	// sojourn histograms is the run's latency distribution.
	agg := &s.snapHists[0]
	agg.Reset()
	snap.Tenants = s.tenantSnapshots(agg)
	snap.Latency = agg.Summarize()
	if snap.MakespanNs > 0 {
		snap.Throughput = float64(snap.Ops) / (float64(snap.MakespanNs) / 1e9)
	}
	snap.IntervalThroughputMean = s.intervalThroughput.Mean()
	snap.IntervalThroughputStd = s.intervalThroughput.Std()
	return snap
}

// queueSum sums the partition's cells' cumulative queue depth.
func (p *partition) queueSum() uint64 {
	var q uint64
	for ti := range p.ten {
		q += p.ten[ti].queueSum
	}
	return q
}

// tenantTotals sums tenant ti's accounting cells, in partition order — the
// one merge behind the tenant-interval records, the final snapshots, the
// shadow deltas, the controller's measurements and the closed-loop
// feedback, so none of them can drift apart.
func (s *Service) tenantTotals(ti int) totals {
	var t totals
	for _, p := range s.parts {
		c := &p.ten[ti]
		t.ops += uint64(c.hist.Count())
		t.hits += uint64(c.hbmHist.Count())
		t.bytesAdmitted += c.bytesAdmitted
		t.queueSum += c.queueSum
		t.latSumNs += c.hist.Sum()
	}
	return t
}

// tenantBlocks sums tenant ti's resident blocks and block budget across
// partitions.
func (s *Service) tenantBlocks(ti int) (resident, budget uint64) {
	for _, p := range s.parts {
		resident += uint64(p.pol.Resident(ti))
		budget += uint64(p.pol.Budget(ti))
	}
	return resident, budget
}

// shadowCounters sums tenant ti's shadow accounting cells across partitions.
// All zero when no shadow policy is configured.
func (s *Service) shadowCounters(ti int) (ops, hits uint64, latSumNs int64) {
	for _, p := range s.parts {
		if p.shadow == nil {
			continue
		}
		cell := &p.shadow.ten[ti]
		ops += cell.ops
		hits += cell.hits
		latSumNs += cell.latSumNs
	}
	return ops, hits, latSumNs
}

// tenantSnapshots merges per-(partition, tenant) accounting cells, in
// partition order within each tenant, into one TenantSnapshot per tenant,
// and merges each tenant's sojourn histogram into agg.
func (s *Service) tenantSnapshots(agg *stats.Histogram) []TenantSnapshot {
	out := make([]TenantSnapshot, len(s.tenants))
	for ti, t := range s.tenants {
		hist, cxlH, hbmH, ssdH := &s.snapHists[1], &s.snapHists[2], &s.snapHists[3], &s.snapHists[4]
		hist.Reset()
		cxlH.Reset()
		hbmH.Reset()
		ssdH.Reset()
		tot := s.tenantTotals(ti)
		ts := TenantSnapshot{
			Tenant:        t.spec.Name,
			Ops:           tot.ops,
			Hits:          tot.hits,
			BytesAdmitted: tot.bytesAdmitted,
			Threshold:     t.threshold,
			Mult:          t.mult,
			QoS:           t.spec.QoS,
			QoSValue:      t.lastMetric,
			WithinQoS:     t.lastWithin,
			QoSValid:      t.lastValid,
		}
		ts.ResidentBlocks, ts.BudgetBlocks = s.tenantBlocks(ti)
		for _, p := range s.parts {
			cell := &p.ten[ti]
			hist.Merge(cell.hist)
			cxlH.Merge(cell.cxlHist)
			hbmH.Merge(cell.hbmHist)
			ssdH.Merge(cell.ssdHist)
		}
		agg.Merge(hist)
		var shadowLat int64
		ts.ShadowOps, ts.ShadowHits, shadowLat = s.shadowCounters(ti)
		if ts.ShadowOps > 0 {
			ts.ShadowMeanNs = float64(shadowLat) / float64(ts.ShadowOps)
		}
		ts.Latency = hist.Summarize()
		ts.CXL = cxlH.Summarize()
		ts.HBM = hbmH.Summarize()
		ts.SSD = ssdH.Summarize()
		out[ti] = ts
	}
	return out
}

// metricRecord is one JSONL line. Kind distinguishes the record types:
// "interval" (periodic aggregate), "tenant-interval" (periodic per-tenant),
// "control" (one adaptive-controller step for one tenant), "share" (one
// capacity-share transfer between tenants, Tenant receiving from Donor),
// "refresh" (a model install), "partition" (final per-partition summary),
// "tenant" (final per-tenant summary) and "summary" (final aggregate). All
// values are virtual-time quantities, so sync-refresh runs emit
// byte-identical metric streams at any shard count.
type metricRecord struct {
	Kind      string `json:"kind"`
	Batch     uint64 `json:"batch,omitempty"`
	Partition *int   `json:"partition,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Ops       uint64 `json:"ops,omitempty"`
	// HitRatio is cumulative over the record's scope (the run so far for
	// interval/summary records, the partition for partition records, the
	// tenant for tenant and tenant-interval records); BatchHitRatio is the
	// most recent batch alone — the drift detector's input — and appears
	// only on interval records. Both are pointers so a measured zero keeps
	// its key while record kinds that measure no hit ratio (control, share,
	// refresh, scenario) omit it.
	HitRatio        *float64 `json:"hit_ratio,omitempty"`
	BatchHitRatio   *float64 `json:"batch_hit_ratio,omitempty"`
	Bypasses        uint64   `json:"bypasses,omitempty"`
	MeanNs          int64    `json:"mean_ns,omitempty"`
	P50Ns           int64    `json:"p50_ns,omitempty"`
	P99Ns           int64    `json:"p99_ns,omitempty"`
	MaxNs           int64    `json:"max_ns,omitempty"`
	OpsPerSec       float64  `json:"virtual_ops_per_sec,omitempty"`
	Refreshes       uint64   `json:"refreshes,omitempty"`
	RefreshesFailed uint64   `json:"refreshes_failed,omitempty"`
	Threshold       float64  `json:"threshold,omitempty"`
	SSDReads        uint64   `json:"ssd_reads,omitempty"`
	SSDWrites       uint64   `json:"ssd_writes,omitempty"`
	// Tenant-record fields.
	BytesAdmitted  uint64  `json:"bytes_admitted,omitempty"`
	ResidentBlocks uint64  `json:"resident_blocks,omitempty"`
	BudgetBlocks   uint64  `json:"budget_blocks,omitempty"`
	Mult           float64 `json:"mult,omitempty"`
	CXLP99Ns       int64   `json:"cxl_p99_ns,omitempty"`
	HBMP99Ns       int64   `json:"hbm_p99_ns,omitempty"`
	SSDP99Ns       int64   `json:"ssd_p99_ns,omitempty"`
	// Share-record fields: the donor tenant, how many blocks the transfer
	// moved (summed over partitions), both tenants' new total budgets, and
	// how many of the donor's resident blocks the shrink evicted.
	// EvictedBlocks is a pointer so share records always carry the key —
	// zero is the meaningful "donor was not resident-full" case — while
	// every other record kind omits it.
	Donor             string  `json:"donor,omitempty"`
	QuantumBlocks     uint64  `json:"quantum_blocks,omitempty"`
	DonorBudgetBlocks uint64  `json:"donor_budget_blocks,omitempty"`
	EvictedBlocks     *uint64 `json:"evicted_blocks,omitempty"`
	// Controller fields: the measured QoS value against its metric name,
	// and whether the tenant sat within its band.
	// QoS is a pointer so a legitimately-zero measurement (e.g. a cold
	// interval's hit ratio) still appears, while unmeasured records omit
	// the key entirely.
	QoSMetric string   `json:"qos_metric,omitempty"`
	QoS       *float64 `json:"qos,omitempty"`
	WithinQoS *bool    `json:"within_qos,omitempty"`
	// Dataflow interval fields (emitted only under "timing": "dataflow"):
	// the interval's mean outstanding-window depth at arrival, how many
	// arrivals stalled on a full window, and each pipeline module's busy
	// fraction of the interval's wall cycles. Pointers so flat-timing metric
	// streams omit the keys and stay byte-identical to their goldens.
	QueueDepthMean *float64 `json:"queue_depth_mean,omitempty"`
	StalledOps     uint64   `json:"stalled_ops,omitempty"`
	GMMBusyRatio   *float64 `json:"gmm_busy_ratio,omitempty"`
	SSDBusyRatio   *float64 `json:"ssd_busy_ratio,omitempty"`
	CtrlBusyRatio  *float64 `json:"ctrl_busy_ratio,omitempty"`
	// Scenario fields ("scenario" records): the timeline event kind that
	// fired, the offered rate it set (rate/diurnal events), and the workload
	// it swapped in (phase events).
	Event      string   `json:"event,omitempty"`
	RatePerSec *float64 `json:"rate_per_sec,omitempty"`
	Workload   string   `json:"workload,omitempty"`
	// Shadow-policy fields (interval / tenant-interval / tenant records,
	// only when a shadow scorer is configured): the shadow cache's
	// cumulative hit ratio and modeled mean latency over the same
	// device-routed traffic, and their deltas against the live policy
	// (shadow minus live). Pointers so shadow-less streams stay
	// byte-identical to their goldens.
	ShadowHitRatio    *float64 `json:"shadow_hit_ratio,omitempty"`
	ShadowHitDelta    *float64 `json:"shadow_hit_delta,omitempty"`
	ShadowMeanNs      *int64   `json:"shadow_mean_ns,omitempty"`
	ShadowMeanDeltaNs *int64   `json:"shadow_mean_delta_ns,omitempty"`
}

// metricsWriter serializes metric records as JSONL. A nil writer turns every
// call into a no-op. Encode errors are sticky — once a write fails, later
// records are dropped — and are surfaced at the next batch boundary
// (processBatch) or checkpoint, so a dead sink fails the run promptly
// rather than at Close.
type metricsWriter struct {
	enc *json.Encoder
	err error
}

func newMetricsWriter(w io.Writer) *metricsWriter {
	mw := &metricsWriter{}
	if w != nil {
		mw.enc = json.NewEncoder(w)
	}
	return mw
}

func (m *metricsWriter) write(rec metricRecord) {
	if m.enc == nil || m.err != nil {
		return
	}
	m.err = m.enc.Encode(rec)
}

func (m *metricsWriter) writeRefresh(batch, installed uint64, threshold float64) {
	m.write(metricRecord{Kind: "refresh", Batch: batch, Refreshes: installed, Threshold: threshold})
}

// emitInterval writes one periodic aggregate record and feeds the interval
// throughput Welford. It reads only O(partitions) counters — no histogram
// merges — so periodic reporting stays off the ingest loop's critical path;
// p50/p99 appear in the final partition/summary records.
// Write errors stick in the metricsWriter and are surfaced by processBatch.
func (s *Service) emitInterval(batchHitRatio float64) {
	var ops, hits, misses, bypasses uint64
	var latSum, makespan int64
	for _, p := range s.parts {
		cs := p.cache.Stats()
		hits += cs.Hits
		misses += cs.Misses
		bypasses += cs.Bypasses
		ops += uint64(p.hist.Count())
		latSum += p.hist.Sum()
		if p.now > makespan {
			makespan = p.now
		}
	}
	var hitRatio, throughput, mean float64
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	if makespan > 0 {
		throughput = float64(ops) / (float64(makespan) / 1e9)
	}
	if ops > 0 {
		mean = float64(latSum) / float64(ops)
	}
	if makespan > s.lastMakespan {
		dOps := ops - s.lastIntervalOps
		dNs := makespan - s.lastMakespan
		s.intervalThroughput.Observe(float64(dOps) / (float64(dNs) / 1e9))
	}
	s.lastIntervalOps = ops
	s.lastMakespan = makespan
	rec := metricRecord{
		Kind:          "interval",
		Batch:         s.batches,
		Ops:           ops,
		HitRatio:      &hitRatio,
		BatchHitRatio: &batchHitRatio,
		Bypasses:      bypasses,
		MeanNs:        int64(mean),
		OpsPerSec:     throughput,
		Refreshes:     s.refresher.installed,
	}
	if s.cfg.Device.Timing == TimingDataflow {
		s.addDataflowInterval(&rec)
	}
	if s.cfg.Shadow != nil {
		s.addShadowInterval(&rec)
	}
	s.metrics.write(rec)
	// Explicit multi-tenant runs also get one cumulative per-tenant line —
	// O(partitions) counter sums, no histogram merges.
	if len(s.cfg.Tenants) > 0 {
		for ti, t := range s.tenants {
			tot := s.tenantTotals(ti)
			hr := 0.0
			if tot.ops > 0 {
				hr = float64(tot.hits) / float64(tot.ops)
			}
			resident, budget := s.tenantBlocks(ti)
			trec := metricRecord{
				Kind:           "tenant-interval",
				Batch:          s.batches,
				Tenant:         t.spec.Name,
				Ops:            tot.ops,
				HitRatio:       &hr,
				BytesAdmitted:  tot.bytesAdmitted,
				ResidentBlocks: resident,
				BudgetBlocks:   budget,
				Threshold:      t.threshold,
				Mult:           t.mult,
			}
			if s.cfg.Shadow != nil {
				if sOps, sHits, sLat := s.shadowCounters(ti); sOps > 0 {
					shr := float64(sHits) / float64(sOps)
					delta := shr - hr
					smean := sLat / int64(sOps)
					trec.ShadowHitRatio = &shr
					trec.ShadowHitDelta = &delta
					trec.ShadowMeanNs = &smean
					if tot.ops > 0 {
						dmean := smean - tot.latSumNs/int64(tot.ops)
						trec.ShadowMeanDeltaNs = &dmean
					}
					if math.Abs(delta) > s.cfg.Shadow.Divergence {
						s.emit(Event{Kind: EventShadowDivergence, Tenant: t.spec.Name, HitRatio: hr, Baseline: shr})
					}
				}
			}
			s.metrics.write(trec)
		}
	}
}

// addShadowInterval attaches the run-wide shadow bake-off view to an
// interval record: the shadow caches' cumulative hit ratio and modeled mean
// latency, with deltas against the live policy. Both sides are computed from
// the per-tenant accounting cells, so the ratios compare like with like —
// note the shadow only sees device-routed traffic, while the live ratio
// includes host-routed hits (a deliberate, documented asymmetry under
// dataflow timing).
func (s *Service) addShadowInterval(rec *metricRecord) {
	var sOps, sHits, lOps, lHits uint64
	var sLat, lLat int64
	for ti := range s.tenants {
		o, h, l := s.shadowCounters(ti)
		sOps += o
		sHits += h
		sLat += l
		tot := s.tenantTotals(ti)
		lOps += tot.ops
		lHits += tot.hits
		lLat += tot.latSumNs
	}
	if sOps == 0 {
		return
	}
	shr := float64(sHits) / float64(sOps)
	lhr := 0.0
	if lOps > 0 {
		lhr = float64(lHits) / float64(lOps)
	}
	delta := shr - lhr
	smean := sLat / int64(sOps)
	rec.ShadowHitRatio = &shr
	rec.ShadowHitDelta = &delta
	rec.ShadowMeanNs = &smean
	if lOps > 0 {
		dmean := smean - lLat/int64(lOps)
		rec.ShadowMeanDeltaNs = &dmean
	}
}

// addDataflowInterval attaches the dataflow congestion view to an interval
// record: per-interval deltas of the cumulative queue/stall/busy counters
// against the cursors left by the previous interval. When every
// device-routed request of the interval stalled on a full outstanding
// window, the device was saturated for the whole interval and an
// EventCongestion is emitted.
func (s *Service) addDataflowInterval(rec *metricRecord) {
	var qsum, dops, stalls uint64
	var gmmB, ssdB, ctrlB, wall int64
	for _, p := range s.parts {
		qsum += p.queueSum()
		dops += p.df.Timeline.Issued()
		stalls += p.df.Timeline.Stalls()
		g, sd, c, _ := p.df.Timeline.Busy()
		gmmB += g
		ssdB += sd
		ctrlB += c
		wall += p.df.Timeline.WallCycles()
	}
	dQ := qsum - s.lastDFQueueSum
	dOps := dops - s.lastDFOps
	dStalls := stalls - s.lastDFStalls
	depthMean := 0.0
	if dOps > 0 {
		depthMean = float64(dQ) / float64(dOps)
	}
	var gmmR, ssdR, ctrlR float64
	if dWall := wall - s.lastWallCycles; dWall > 0 {
		gmmR = float64(gmmB-s.lastGMMBusy) / float64(dWall)
		ssdR = float64(ssdB-s.lastSSDBusy) / float64(dWall)
		ctrlR = float64(ctrlB-s.lastCtrlBusy) / float64(dWall)
	}
	rec.QueueDepthMean = &depthMean
	rec.StalledOps = dStalls
	rec.GMMBusyRatio = &gmmR
	rec.SSDBusyRatio = &ssdR
	rec.CtrlBusyRatio = &ctrlR
	s.lastDFQueueSum, s.lastDFOps, s.lastDFStalls = qsum, dops, stalls
	s.lastGMMBusy, s.lastSSDBusy, s.lastCtrlBusy, s.lastWallCycles = gmmB, ssdB, ctrlB, wall
	if dOps > 0 && dStalls == dOps {
		s.emit(Event{Kind: EventCongestion, QueueDepth: depthMean})
	}
}

// writeFinal emits the per-partition, per-tenant and aggregate summary
// records. Tenant records appear only for explicit multi-tenant runs, so
// single-tenant metric streams are unchanged.
func (m *metricsWriter) writeFinal(snap *Snapshot, emitTenants bool) error {
	for i := range snap.Partitions {
		ps := &snap.Partitions[i]
		idx := ps.Partition
		ops := float64(0)
		if snap.MakespanNs > 0 {
			ops = float64(ps.Ops) / (float64(snap.MakespanNs) / 1e9)
		}
		hr := ps.Cache.HitRate()
		m.write(metricRecord{
			Kind:      "partition",
			Partition: &idx,
			Ops:       ps.Ops,
			HitRatio:  &hr,
			Bypasses:  ps.Cache.Bypasses,
			MeanNs:    int64(ps.Latency.Mean),
			P50Ns:     int64(ps.Latency.P50),
			P99Ns:     int64(ps.Latency.P99),
			MaxNs:     int64(ps.Latency.Max),
			OpsPerSec: ops,
			SSDReads:  ps.SSD.Reads,
			SSDWrites: ps.SSD.Writes,
		})
	}
	if emitTenants {
		for i := range snap.Tenants {
			ts := &snap.Tenants[i]
			hr := ts.HitRatio()
			rec := metricRecord{
				Kind:           "tenant",
				Tenant:         ts.Tenant,
				Ops:            ts.Ops,
				HitRatio:       &hr,
				BytesAdmitted:  ts.BytesAdmitted,
				ResidentBlocks: ts.ResidentBlocks,
				BudgetBlocks:   ts.BudgetBlocks,
				MeanNs:         int64(ts.Latency.Mean),
				P50Ns:          int64(ts.Latency.P50),
				P99Ns:          int64(ts.Latency.P99),
				MaxNs:          int64(ts.Latency.Max),
				CXLP99Ns:       int64(ts.CXL.P99),
				HBMP99Ns:       int64(ts.HBM.P99),
				SSDP99Ns:       int64(ts.SSD.P99),
				Threshold:      ts.Threshold,
				Mult:           ts.Mult,
			}
			if ts.QoS != nil && ts.QoSValid {
				within, v := ts.WithinQoS, ts.QoSValue
				rec.QoSMetric = ts.QoS.Metric
				rec.QoS = &v
				rec.WithinQoS = &within
			}
			if snap.Shadow && ts.ShadowOps > 0 {
				shr := float64(ts.ShadowHits) / float64(ts.ShadowOps)
				delta := shr - hr
				smean := int64(ts.ShadowMeanNs)
				rec.ShadowHitRatio = &shr
				rec.ShadowHitDelta = &delta
				rec.ShadowMeanNs = &smean
				if ts.Ops > 0 {
					// The tenant histogram's sum/count equals the integer
					// latency sum over ops exactly, so this delta matches the
					// interval records' arithmetic.
					dmean := smean - int64(ts.Latency.Mean)
					rec.ShadowMeanDeltaNs = &dmean
				}
			}
			m.write(rec)
		}
	}
	hr := snap.HitRatio()
	m.write(metricRecord{
		Kind:            "summary",
		Ops:             snap.Ops,
		HitRatio:        &hr,
		Bypasses:        snap.Cache.Bypasses,
		MeanNs:          int64(snap.Latency.Mean),
		P50Ns:           int64(snap.Latency.P50),
		P99Ns:           int64(snap.Latency.P99),
		MaxNs:           int64(snap.Latency.Max),
		OpsPerSec:       snap.Throughput,
		Refreshes:       snap.Refreshes,
		RefreshesFailed: snap.RefreshesFailed,
		SSDReads:        snap.SSDReads,
		SSDWrites:       snap.SSDWrites,
	})
	return m.err
}
