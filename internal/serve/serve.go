// Package serve is the online serving subsystem: a long-running, sharded
// cache service that models the ICGMM device under live traffic instead of
// the offline batch replay of internal/experiments. Requests from an
// open-loop source are ingested in batches, every request is routed through
// the cxl/hbm/ssd latency models of its address partition for end-to-end
// service-time accounting, and the GMM scores a request only when it misses
// the cache — hits are served without inference, as in the hardware. A
// drift detector watches the hit ratio at batch boundaries and triggers an
// EM refit whose result replaces the scoring bundle before the next batch
// (see refresh.go).
//
// # Determinism
//
// The service carries the experiment engine's contract over to serving:
// results are bit-identical at any shard count. The decomposition that makes
// that possible is fixed logical *partitions* (each owning a slice of the
// cache, its own policy engine, latency models and histograms, keyed by page
// address) driven by a pool of *shards* — worker goroutines that drain
// partitions concurrently within each batch. Admission scores derive from
// the request's global arrival index alone (trace.Timestamp is a pure
// function of it, so per-partition policies never run shard-local
// Algorithm 1 clocks), and aggregate metrics merge per-partition state in
// partition order. Shard count therefore affects wall clock only; partition
// count is part of the configuration and does change results, exactly like
// cache geometry.
package serve

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fpga"
	"repro/internal/gmm"
	"repro/internal/hbm"
	"repro/internal/policy"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Request is one page-granular operation presented to the service.
type Request struct {
	// Page is the 4 KiB device page index.
	Page uint64
	// Write marks store requests.
	Write bool
	// ArrivalNs is the open-loop arrival time in virtual nanoseconds.
	ArrivalNs int64
	// Seq is the global arrival index; the service assigns it at ingest.
	Seq uint64
	// Tenant indexes Config.Tenants (0 for single-tenant sources); the
	// service accounts and capacity-shares the request under it.
	Tenant int
}

// Config assembles the serving subsystem.
type Config struct {
	// Shards is the worker pool draining partitions each batch: 0 = one per
	// core, 1 = sequential. Results are bit-identical at any value.
	Shards int
	// Partitions is the fixed logical decomposition of the address space;
	// each partition owns Cache.SizeBytes/Partitions of cache plus its own
	// latency models. Unlike Shards it is part of the simulated
	// configuration: changing it changes results.
	Partitions int
	// Cache is the total device cache geometry, split evenly across
	// partitions.
	Cache cache.Config
	// SSD is the backing-store latency profile; SSDChannels is the channel
	// count per partition.
	SSD         ssd.Profile
	SSDChannels int
	// HBM models each partition's device-DRAM banks.
	HBM hbm.Config
	// Link characterizes the CXL port; every request pays one round trip.
	Link cxl.LinkConfig
	// Mode picks the GMM strategy (default caching+eviction).
	Mode policy.GMMMode
	// Scoring picks the admission scorer datapath (default float64; see
	// ScoringKind). Training always fits in float; q16 quantizes each fitted
	// model at install time.
	Scoring ScoringKind
	// GMMInference is the policy engine's per-miss inference latency;
	// Overlap hides it behind the SSD access as in Sec. 4.3.
	GMMInference time.Duration
	Overlap      bool
	// Transform supplies the Algorithm 1 windowing parameters; timestamps
	// derive from the global arrival index through it. For online serving
	// the warm-up trace must cover at least one full access shot
	// (LenWindow*LenAccessShot requests after trimming): otherwise the
	// model never sees the upper timestamp range, scores it as
	// out-of-distribution once the serving clock passes the warm-up
	// horizon, and bypasses structurally hot pages.
	Transform trace.TransformConfig
	// Train configures initial training and refresh refits; Workers
	// defaults to Shards so the E-step fans out over the same pool.
	Train gmm.TrainConfig
	// ThresholdPct is the admission-threshold quantile over training
	// scores (see policy.CalibrateThreshold).
	ThresholdPct float64
	// BatchSize is the ingest batch length — the unit of partition draining
	// on the shard pool and of drift-detector observation. A refreshed model
	// installs only between batches.
	BatchSize int
	// Refresh configures online model refresh (off by default).
	Refresh RefreshConfig
	// Tenants, when non-empty, turns on multi-tenant serving: requests are
	// accounted under Request.Tenant (an index into this slice) and each
	// tenant's HBM capacity share is enforced at admission. Empty means one
	// anonymous tenant owning the whole cache.
	Tenants []TenantSpec
	// Control parameterizes the adaptive per-tenant threshold controller;
	// it activates only for tenants that declare a QoS target.
	Control ControlConfig
	// Device selects the timing backend requests are served through: the
	// flat latency-constant model (default — the historical behaviour) or
	// the fpga dataflow pipeline with host routing and a bounded
	// outstanding-request window. See DeviceConfig.
	Device DeviceConfig
	// Shadow, when non-nil, runs the trained shadow policy bundle alongside
	// the live GMM: every partition gets a shadow cache fed the identical
	// request sequence, and interval/final records carry per-tenant shadow
	// hit-ratio and latency deltas. The shadow is strictly read-side — it
	// never touches live cache state, the serving clock, or (absent a
	// shadow block in the spec) the metric byte stream.
	Shadow *ShadowBundle
	// Metrics, when non-nil, receives JSONL metric records: one "interval"
	// record every ReportEvery batches, one "refresh" record per installed
	// model, and "partition" + "summary" records when the run ends.
	Metrics     io.Writer
	ReportEvery int
}

// DefaultConfig mirrors the paper's device configuration as an online
// service: 64 MiB cache over 16 partitions, TLC SSD, 1 us DRAM hits, 3 us
// GMM inference overlapped with the SSD access.
func DefaultConfig() Config {
	return Config{
		Shards:       0,
		Partitions:   16,
		Cache:        cache.DefaultConfig(),
		SSD:          ssd.TLC(),
		SSDChannels:  8,
		HBM:          hbm.DefaultConfig(),
		Link:         cxl.DefaultLinkConfig(),
		Mode:         policy.GMMCachingEviction,
		GMMInference: 3 * time.Microsecond,
		Overlap:      true,
		Transform:    trace.DefaultTransformConfig(),
		Train:        gmm.DefaultTrainConfig(),
		ThresholdPct: 0.02,
		BatchSize:    8192,
		Refresh:      DefaultRefreshConfig(),
		Control:      DefaultControlConfig(),
		Device:       DefaultDeviceConfig(),
		ReportEvery:  16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Partitions <= 0 {
		return errors.New("serve: need at least one partition")
	}
	if c.BatchSize <= 0 {
		return errors.New("serve: non-positive batch size")
	}
	if c.SSDChannels <= 0 {
		return errors.New("serve: non-positive SSD channel count")
	}
	if c.ThresholdPct < 0 || c.ThresholdPct > 1 {
		return errors.New("serve: threshold percentile outside [0,1]")
	}
	if c.Scoring != ScoringFloat64 && c.Scoring != ScoringQ16 {
		return fmt.Errorf("serve: unknown scoring kind %d", c.Scoring)
	}
	if err := c.SSD.Validate(); err != nil {
		return err
	}
	if err := c.HBM.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if err := c.Refresh.Validate(); err != nil {
		return err
	}
	if err := ValidateTenants(c.Tenants); err != nil {
		return err
	}
	if err := c.Control.Validate(); err != nil {
		return err
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	// Queue depth only exists under dataflow timing: the flat model has no
	// outstanding window, so a queue-depth QoS target could never measure.
	if c.Device.Timing != TimingDataflow {
		for _, t := range c.Tenants {
			if t.QoS != nil && t.QoS.Metric == QoSQueueDepth {
				return fmt.Errorf("serve: tenant %q: %q QoS needs \"timing\": \"dataflow\"", t.Name, QoSQueueDepth)
			}
		}
	}
	pc, err := c.partitionCache()
	if err != nil {
		return err
	}
	if _, err := tenantBudgets(c.Tenants, pc); err != nil {
		return err
	}
	return nil
}

// partitionCache derives one partition's cache geometry from the total.
func (c Config) partitionCache() (cache.Config, error) {
	pc := c.Cache
	if pc.SizeBytes%uint64(c.Partitions) != 0 {
		return pc, fmt.Errorf("serve: cache size %d not divisible by %d partitions", pc.SizeBytes, c.Partitions)
	}
	pc.SizeBytes /= uint64(c.Partitions)
	if err := pc.Validate(); err != nil {
		return pc, fmt.Errorf("serve: per-partition cache: %w", err)
	}
	return pc, nil
}

// trainConfig is the refit configuration with the worker default applied.
func (c Config) trainConfig() gmm.TrainConfig {
	t := c.Train
	if t.Workers == 0 {
		t.Workers = c.Shards
	}
	return t
}

// Bundle is the scoring state: the serving scorer, the float model behind
// it, the coordinate normalizer fitted with it, and the calibrated admission
// threshold. A refresh replaces all of it together at a batch boundary.
type Bundle struct {
	// Scorer is what the admission path scores through: the float Model
	// itself, or its quantized form under ScoringQ16.
	Scorer    policy.Scorer
	Norm      trace.Normalizer
	Threshold float64
	// Model is the float64 model behind Scorer, required by New. It is what
	// checkpoints persist; the quantized form is re-derived from it
	// deterministically at resume.
	Model *gmm.Model
	// Quant reports the quantization fidelity when Scorer is the q16 form.
	Quant gmm.QuantReport
}

// deriveScorer sets the bundle's Scorer from its Model under the scoring
// kind: the model itself, or its Q16.16 form and quantization report. It
// reports false, leaving the bundle unfit to serve, when a constant saturates
// Q16.16: the fixed-point densities would be unfaithful with no other
// signal. Training, refits and resumes all derive their scorer here.
func (b *Bundle) deriveScorer(kind ScoringKind) bool {
	b.Scorer = b.Model
	if kind != ScoringQ16 {
		return true
	}
	qm, rep := gmm.Quantize(b.Model)
	b.Scorer, b.Quant = qm, rep
	return rep.Saturated == 0
}

// buildBundle packages a fitted float model for serving under the configured
// scoring kind: derive the scorer, refusing a saturated q16 model, then
// calibrate the admission threshold against the scorer that will actually
// serve — GMM densities are only comparable within one datapath, so a
// threshold calibrated in float would sit on the wrong scale for quantized
// scores.
func buildBundle(model *gmm.Model, norm trace.Normalizer, normed []trace.Sample, cfg Config) (*Bundle, error) {
	b := &Bundle{Model: model, Norm: norm}
	if !b.deriveScorer(cfg.Scoring) {
		return nil, fmt.Errorf("serve: q16 scoring: %d model constants saturate Q16.16 (max representable error %.3g); refusing unfaithful fixed-point model", b.Quant.Saturated, b.Quant.MaxAbsErr)
	}
	b.Threshold = policy.CalibrateThreshold(b.Scorer, normed, cfg.ThresholdPct)
	return b, nil
}

// TrainBundle runs the offline Sec. 3 flow on a warm-up trace and packages
// the result for serving: preprocess, fit the normalizer and the GMM (E-step
// sharded per Config.Shards), and calibrate the admission threshold against
// the configured scoring datapath.
func TrainBundle(tr trace.Trace, cfg Config) (*Bundle, error) {
	samples := trace.Preprocess(tr, cfg.Transform)
	if len(samples) < 2 {
		return nil, errors.New("serve: warm-up trace too short after preprocessing")
	}
	norm := trace.FitNormalizer(samples)
	normed := norm.ApplyAll(samples)
	res, err := gmm.Fit(normed, cfg.trainConfig())
	if err != nil {
		return nil, fmt.Errorf("serve: training bundle: %w", err)
	}
	b, err := buildBundle(res.Model, norm, normed, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: training bundle: %w", err)
	}
	return b, nil
}

// partitionOf routes a page to its partition through a fixed bit-mixing hash
// (the splitmix64 finalizer). Routing by page%nParts instead would correlate
// with the partition cache's own set indexing (page%numSets): when nParts
// divides numSets — every power-of-two geometry — each partition's pages
// alias into only numSets/nParts of its sets, silently wasting most of the
// cache. The hash decorrelates the two mappings; it is a pure function of
// the page, so routing stays deterministic at any shard count.
func partitionOf(page, nParts uint64) uint64 {
	x := page
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x % nParts
}

// scoredReq is one routed request with its Algorithm 1 timestamp.
// Normalization and scoring happen partition-side, on the shard pool, and
// only if the request misses (see scoreMiss).
type scoredReq struct {
	req Request
	ts  int
}

// partition is one address-partition's worth of device state. All fields are
// touched only by the shard draining the partition (inside a batch) or by
// the ingest loop (between batches), so no locking is needed.
type partition struct {
	cache *cache.Cache
	pol   *tenantGMM
	mem   *hbm.Memory
	dev   *ssd.Device

	// flat and df are the timing backend every request is served through;
	// exactly one is non-nil. Flat gates requests on the partition clock,
	// dataflow queues them in the fpga timeline and routes host-resident
	// pages around the device. The timeline counts the device-routed
	// requests and their stalls (Issued, Stalls), so the partition keeps no
	// copy of either; host-routed ops are the rest (see hostOps).
	flat *device.Flat
	df   *device.Dataflow

	// shadow, when non-nil, is the partition's shadow cache + policy
	// (Config.Shadow); it replays the batch after the live drain.
	shadow *shadowPart

	now        int64 // completion time of the last request served here
	engineBusy int64
	// hist is the partition's sojourn histogram: by construction the merge
	// of its cells' hist, so its Count is the partition's op count. It is
	// kept, not merged from the cells on demand, because Snapshot writes a
	// record per partition: a merge of every cell per partition at every
	// snapshot measurably slowed snapshots (EXPERIMENTS.md, "Cumulative
	// accounting cells").
	hist *stats.Histogram
	ten  []tenantPartStats // per-tenant accounting cells

	queue []scoredReq
	// bundle is the scoring bundle of the batch being drained, loaded once
	// per batch, and curTS the Algorithm 1 timestamp of the request being
	// served: scoreMiss scores a miss against both.
	bundle *Bundle
	curTS  int
	// missPage, missTime and missScore are scoreMiss's one-point buffers.
	missPage, missTime, missScore [1]float64
	// scratch holds the partition's scoring workspace. Each partition owns
	// its own because partitions score the shared bundle concurrently on
	// shard goroutines; sharing one through the model would race.
	scratch gmm.Scratch
	// rsLocs, pages, times and scores are rescoreResident's buffers, kept
	// here so periodic refreshes stop allocating.
	rsLocs []scoreLoc
	pages  []float64
	times  []float64
	scores []float64
}

// scoreLoc addresses one resident cache block for batched rescoring.
type scoreLoc struct{ set, way int }

// Service is the running subsystem. Build with New, drive with Run.
type Service struct {
	cfg     Config
	tcfg    trace.TransformConfig
	runner  *engine.Runner
	parts   []*partition
	tenants []*tenantState
	seq     uint64
	batches uint64

	refresher *refresher
	ctrl      *controller
	window    *sampleWindow
	metrics   *metricsWriter
	// obs, when non-nil, receives serving-path events (see Session.Observe).
	// Called only at batch boundaries on the session's goroutine; purely
	// read-side, so it never affects the deterministic output.
	obs func(Event)

	// snapHists are Snapshot's merge targets, reset and reused on every call
	// so a snapshot allocates no bucket storage: the aggregate latency, then
	// one tenant's sojourn, link, hit and miss latencies.
	snapHists [5]stats.Histogram

	intervalThroughput stats.Welford
	lastIntervalOps    uint64
	lastMakespan       int64

	// Dataflow interval cursors: the last-emitted values of the cumulative
	// queue/stall/busy counters, so emitInterval reports per-interval deltas
	// (see metrics.go). All zero under flat timing.
	lastDFQueueSum uint64
	lastDFOps      uint64
	lastDFStalls   uint64
	lastGMMBusy    int64
	lastSSDBusy    int64
	lastCtrlBusy   int64
	lastWallCycles int64
}

// New builds a service around an initial scoring bundle (see TrainBundle).
func New(cfg Config, b *Bundle) (*Service, error) {
	if b == nil || b.Scorer == nil {
		return nil, errors.New("serve: nil scoring bundle")
	}
	if b.Model == nil {
		return nil, errors.New("serve: scoring bundle has no float model to checkpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pc, err := cfg.partitionCache()
	if err != nil {
		return nil, err
	}
	tcfg := cfg.Transform.Sanitized()
	// The tenant list always has at least one entry: an anonymous default
	// tenant owning the whole cache when Config.Tenants is empty.
	specs := cfg.Tenants
	if len(specs) == 0 {
		specs = []TenantSpec{{Name: "default", Share: 1}}
	}
	tenants := make([]*tenantState, len(specs))
	for i, ts := range specs {
		tenants[i] = &tenantState{spec: ts, mult: 1, threshold: b.Threshold, ctrlDir: -1}
	}
	budgets, err := tenantBudgets(cfg.Tenants, pc)
	if err != nil {
		return nil, err
	}
	parts := make([]*partition, cfg.Partitions)
	for i := range parts {
		// The policy scores each miss through its partition's scoreMiss,
		// bound below; threshold updates arrive via SetThresholds at batch
		// boundaries.
		pol := newTenantGMM(cfg.Mode, budgets, b.Threshold)
		c, err := cache.New(pc, pol)
		if err != nil {
			return nil, err
		}
		mem, err := hbm.New(cfg.HBM)
		if err != nil {
			return nil, err
		}
		dev, err := ssd.New(cfg.SSD, cfg.SSDChannels)
		if err != nil {
			return nil, err
		}
		link, err := cxl.NewLink(cfg.Link)
		if err != nil {
			return nil, err
		}
		ten := make([]tenantPartStats, len(specs))
		for t := range ten {
			ten[t] = newTenantPartStats(specs[t])
		}
		var shadow *shadowPart
		if cfg.Shadow != nil {
			if shadow, err = newShadowPart(cfg, cfg.Shadow, pc, len(specs), mem, dev, link); err != nil {
				return nil, err
			}
		}
		p := &partition{
			cache:  c,
			pol:    pol,
			mem:    mem,
			dev:    dev,
			shadow: shadow,
			hist:   stats.DefaultLatencyHistogram(),
			ten:    ten,
		}
		switch cfg.Device.Timing {
		case TimingDataflow:
			tl, err := fpga.NewDeviceTimeline(cfg.Device.Dataflow)
			if err != nil {
				return nil, err
			}
			p.df = &device.Dataflow{
				Link:      link,
				Timeline:  tl,
				HostPages: cfg.Device.HostPages,
				HostLatNs: cfg.Device.HostLatencyNs,
			}
		default:
			p.flat = &device.Flat{
				Mem:        mem,
				Dev:        dev,
				Link:       link,
				OverheadNs: cfg.GMMInference.Nanoseconds(),
				Overlap:    cfg.Overlap,
			}
		}
		pol.bindCache(c)
		pol.bindScorer(p.scoreMiss)
		parts[i] = p
	}
	s := &Service{
		cfg:     cfg,
		tcfg:    tcfg,
		runner:  engine.NewRunner(cfg.Shards),
		parts:   parts,
		tenants: tenants,
		window:  newSampleWindow(cfg.Refresh),
		metrics: newMetricsWriter(cfg.Metrics),
	}
	s.refresher = newRefresher(s, b)
	s.ctrl = newController(s, cfg.Control)
	return s, nil
}

// applyThresholds recomputes every tenant's effective admission threshold
// (active bundle base x controller multiplier) and publishes the result to
// every partition's policy engine. Called only at batch boundaries.
func (s *Service) applyThresholds() {
	base := s.refresher.bundle.Threshold
	ths := make([]float64, len(s.tenants))
	for i, t := range s.tenants {
		t.threshold = base * t.mult
		ths[i] = t.threshold
	}
	for _, p := range s.parts {
		p.pol.SetThresholds(ths)
	}
}

// transferShare moves q blocks per partition of HBM capacity from tenant
// donor to tenant recv: every partition's budgets shift identically and the
// donor's overflow blocks are evicted coldest-first, all at the current batch
// boundary — never mid-batch — so the no-overcommit invariant holds through
// the resize. The per-partition work is partition-local and fans out over
// the shard pool; one "share" metric record documents the move. The evicted
// blocks' write-backs land in the cache statistics (like any eviction);
// their device time is not charged to the serving clock, modeling a
// background migration drained off the critical path between batches.
func (s *Service) transferShare(donor, recv, q int) {
	evicted := make([]int, len(s.parts))
	_ = engine.ForEach(s.runner, s.parts, func(i int, p *partition) error {
		evicted[i] = p.pol.shiftBudget(donor, recv, q)
		return nil
	})
	var freed, donorBudget, recvBudget uint64
	for i, p := range s.parts {
		freed += uint64(evicted[i])
		donorBudget += uint64(p.pol.Budget(donor))
		recvBudget += uint64(p.pol.Budget(recv))
	}
	s.metrics.write(metricRecord{
		Kind:              "share",
		Batch:             s.batches,
		Tenant:            s.tenants[recv].spec.Name,
		Donor:             s.tenants[donor].spec.Name,
		QuantumBlocks:     uint64(q * len(s.parts)),
		BudgetBlocks:      recvBudget,
		DonorBudgetBlocks: donorBudget,
		EvictedBlocks:     &freed,
	})
	s.emit(Event{
		Kind:   EventShare,
		Tenant: s.tenants[recv].spec.Name,
		Donor:  s.tenants[donor].spec.Name,
		Blocks: uint64(q * len(s.parts)),
	})
}

// rescoreResident re-derives every resident block's stored eviction score
// under the given bundle, at the install-time Algorithm 1 timestamp. GMM
// densities are only comparable within one model: after a refresh, scores
// stored by the previous model sit on an arbitrarily different scale, and
// min-score eviction comparing across scales can make stale blocks immortal
// (observed as a tenant never re-warming its share after a working-set
// shift). Runs at batch boundaries on the shard pool; block order within a
// partition is fixed (set, then way), so results are deterministic at any
// shard count.
func (s *Service) rescoreResident(b *Bundle) {
	ts := trace.Timestamp(s.seq, s.tcfg.LenWindow, s.tcfg.LenAccessShot)
	_ = engine.ForEach(s.runner, s.parts, func(_ int, p *partition) error {
		// The buffers belong to rescoreResident alone; reusing them, a
		// refresh allocates only when the resident set has outgrown them.
		locs, pages, times := p.rsLocs[:0], p.pages[:0], p.times[:0]
		p.cache.Scan(func(set, way int, page uint64, _ bool) {
			np, nt := b.Norm.ApplyPageTime(page, ts)
			locs = append(locs, scoreLoc{set, way})
			pages = append(pages, np)
			times = append(times, nt)
		})
		p.rsLocs, p.pages, p.times = locs, pages, times
		if len(locs) == 0 {
			return nil
		}
		if cap(p.scores) < len(locs) {
			p.scores = make([]float64, len(locs))
		}
		scores := p.scores[:len(locs)]
		b.Scorer.ScorePageTimeBatchScratch(pages, times, scores, &p.scratch)
		for i, l := range locs {
			p.pol.setScore(l.set, l.way, scores[i])
		}
		return nil
	})
}

// Bundle returns the currently active scoring bundle.
func (s *Service) Bundle() *Bundle { return s.refresher.bundle }

// Refreshes returns how many refreshed models have been installed.
func (s *Service) Refreshes() uint64 { return s.refresher.installed }

// Run ingests the source until it is exhausted, then emits the final metric
// records and returns the aggregate snapshot.
func (s *Service) Run(src Source) (*Snapshot, error) {
	buf := make([]Request, s.cfg.BatchSize)
	for {
		n := src.Next(buf)
		if n == 0 {
			break
		}
		if err := s.processBatch(buf[:n]); err != nil {
			return nil, err
		}
	}
	snap := s.Snapshot()
	if err := s.metrics.writeFinal(snap, len(s.cfg.Tenants) > 0); err != nil {
		return nil, err
	}
	return snap, nil
}

// processBatch runs one batch through the pipeline: ingest (assign global
// sequence numbers, derive Algorithm 1 timestamps, route to partitions),
// cache/latency accounting per partition on the shard pool, with GMM
// admission scoring of the misses against the batch's bundle, then
// batch-boundary work (drift detection, refresh installation, metrics).
func (s *Service) processBatch(batch []Request) error {
	b := s.refresher.bundle
	nParts := uint64(len(s.parts))
	// The ingest loop is the pipeline's only serial segment, so it does the
	// bare minimum per request: sequence assignment, timestamp derivation,
	// routing, and — only when refresh can ever read it — the refit window.
	windowOn := s.cfg.Refresh.Mode != RefreshOff
	for i := range batch {
		if t := batch[i].Tenant; t < 0 || t >= len(s.tenants) {
			return fmt.Errorf("serve: request tenant %d outside configured tenants [0,%d)", t, len(s.tenants))
		}
		batch[i].Seq = s.seq
		ts := trace.Timestamp(s.seq, s.tcfg.LenWindow, s.tcfg.LenAccessShot)
		if windowOn {
			s.window.push(float64(batch[i].Page))
		}
		p := s.parts[partitionOf(batch[i].Page, nParts)]
		p.queue = append(p.queue, scoredReq{req: batch[i], ts: ts})
		s.seq++
	}
	hitsBefore := s.hitsServed()
	if err := engine.ForEach(s.runner, s.parts, func(_ int, p *partition) error {
		p.drainBatch(b)
		return nil
	}); err != nil {
		return err
	}

	s.batches++
	// The drift detector's input: the batch's hits, as the growth of the
	// cells' cumulative hit counts over the drain.
	hitRatio := 0.0
	if len(batch) > 0 {
		hitRatio = float64(s.hitsServed()-hitsBefore) / float64(len(batch))
	}
	s.refresher.observe(hitRatio)

	if s.ctrl != nil && s.batches%uint64(s.ctrl.cfg.Every) == 0 {
		s.ctrl.step()
	}
	if s.cfg.ReportEvery > 0 && s.batches%uint64(s.cfg.ReportEvery) == 0 {
		s.emitInterval(hitRatio)
	}
	// Surface metrics-sink write failures at the batch that hit them (any
	// record kind — interval, refresh, share, control — may have tripped the
	// sticky error) instead of letting a full disk go unnoticed until Close.
	if s.metrics.err != nil {
		return fmt.Errorf("serve: metrics sink: %w", s.metrics.err)
	}
	return nil
}

// drainBatch serves the partition's queued requests in arrival order; the
// misses among them are scored against b (see scoreMiss). Runs on a shard
// goroutine; touches only partition-local state plus the immutable bundle.
func (p *partition) drainBatch(b *Bundle) {
	p.bundle = b
	for _, sr := range p.queue {
		p.serveOne(sr.req, sr.ts)
	}
	if p.shadow != nil {
		// Replay the identical request sequence through the shadow cache.
		// Host-routed pages never reached the live cache, so the shadow skips
		// them too (hostRoute is a pure function of the page).
		for _, sr := range p.queue {
			if _, ok := p.hostRoute(sr.req.Page); ok {
				continue
			}
			p.shadow.serve(sr.req)
		}
	}
	p.queue = p.queue[:0]
}

// scoreMiss is the policy's scoring hook: the GMM admission score of page at
// the staged request's timestamp, under the batch's bundle. The policy calls
// it once per miss, from Admit, so hits and host-routed requests are never
// scored. It scores one point through the batch kernel, whose results have
// the bits of any other batching of the same points.
func (p *partition) scoreMiss(page uint64) float64 {
	p.missPage[0], p.missTime[0] = p.bundle.Norm.ApplyPageTime(page, p.curTS)
	p.bundle.Scorer.ScorePageTimeBatchScratch(p.missPage[:], p.missTime[:], p.missScore[:], &p.scratch)
	return p.missScore[0]
}

// hitsServed sums every cell's cumulative hit count: its HBM histogram's
// count, since device hits and host-routed requests both observe it.
func (s *Service) hitsServed() uint64 {
	var hits uint64
	for _, p := range s.parts {
		for ti := range p.ten {
			hits += uint64(p.ten[ti].hbmHist.Count())
		}
	}
	return hits
}

// hostOps counts the partition's host-routed requests: every request not
// issued to the device timeline. Only dataflow timing routes to the host.
func (p *partition) hostOps() uint64 {
	if p.df == nil {
		return 0
	}
	return uint64(p.hist.Count()) - p.df.Timeline.Issued()
}

// hostRoute reports whether the page is host-DRAM resident — served
// locally, bypassing the cache and the device — and its latency. Only
// dataflow timing routes pages to the host.
func (p *partition) hostRoute(page uint64) (int64, bool) {
	if p.df == nil {
		return 0, false
	}
	return p.df.HostRoute(page)
}

// serveOne routes one request through the partition's device model. Pages
// the model routes to host DRAM (dataflow timing with host-resident pages)
// are served locally — no policy, no cache, no link — and counted as hits.
// Device-routed requests go cache-lookup-first, then the model times the
// access: under flat timing the partition is a single server (a request
// begins at its arrival time or when the previous request here completed,
// whichever is later); under dataflow timing queueing lives in the fpga
// timeline's module cursors and outstanding window, so a request enters at
// its arrival time. Either way the recorded latency is the sojourn time
// (queueing plus service). timestamp is the request's Algorithm 1
// timestamp, staged for scoreMiss. The request is recorded once, in its
// tenant's cell (and the partition histogram that merges the cells).
func (p *partition) serveOne(req Request, timestamp int) {
	ts := &p.ten[req.Tenant]
	if lat, ok := p.hostRoute(req.Page); ok {
		done := req.ArrivalNs + lat
		if done > p.now {
			p.now = done
		}
		p.hist.Observe(lat)
		ts.hist.Observe(lat)
		ts.hbmHist.Observe(lat)
		if ts.intervalHist != nil {
			ts.intervalHist.Observe(lat)
		}
		return
	}

	p.curTS = timestamp
	p.pol.Begin(req.Tenant)
	res := p.cache.Access(req.Page, req.Write)
	out := device.OutcomeOf(res, req.Write)
	// linkNs and devNs are the CXL round-trip and device-internal
	// components of the service.
	var done, linkNs, devNs int64
	if p.df != nil {
		r := p.df.Serve(req.Page, out, req.ArrivalNs)
		done, linkNs, devNs = r.DoneNs, r.LinkNs, r.DevNs
		ts.queueSum += uint64(r.QueueDepth)
	} else {
		start := max(req.ArrivalNs, p.now)
		var busy int64
		linkNs, devNs, busy = p.flat.Serve(req.Page, out, start)
		done = start + linkNs + devNs
		p.engineBusy += busy
	}
	if done > p.now {
		p.now = done
	}
	sojourn := done - req.ArrivalNs
	p.hist.Observe(sojourn)

	// Per-tenant accounting: sojourn plus the cxl/hbm/ssd components, split
	// by where the device time was spent.
	ts.hist.Observe(sojourn)
	ts.cxlHist.Observe(linkNs)
	if res.Hit {
		ts.hbmHist.Observe(devNs)
	} else {
		ts.ssdHist.Observe(devNs)
	}
	if res.Admitted {
		ts.bytesAdmitted += trace.PageSize
	}
	if ts.intervalHist != nil {
		ts.intervalHist.Observe(sojourn)
	}
}
