package serve

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/linalg"
	"repro/internal/lstm"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestScoringKindStrings(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		kind ScoringKind
	}{{"float64", ScoringFloat64}, {"q16", ScoringQ16}} {
		k, err := ParseScoringKind(tc.in)
		if err != nil || k != tc.kind {
			t.Errorf("ParseScoringKind(%q) = %v, %v", tc.in, k, err)
		}
		if k.String() != tc.in {
			t.Errorf("String() round trip: %q -> %q", tc.in, k.String())
		}
	}
	if _, err := ParseScoringKind("fixed"); err == nil {
		t.Error("unknown scoring kind accepted")
	}
	cfg := DefaultConfig()
	cfg.Scoring = ScoringKind(99)
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range scoring kind passed Validate")
	}
}

// scoringTestModel is a moderate one-component model whose densities are
// comfortably inside the Q16.16 range.
func scoringTestModel(t testing.TB) *gmm.Model {
	t.Helper()
	m, err := gmm.New([]gmm.Component{
		{Weight: 1, Mean: linalg.V2(0.5, 0.1), Cov: linalg.SymDiag(0.25, 0.25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildBundleRefusesSaturatedQ16(t *testing.T) {
	t.Parallel()
	tight, err := gmm.New([]gmm.Component{
		{Weight: 1, Mean: linalg.V2(0.5, 0.5), Cov: linalg.SymDiag(1e-6, 1e-6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	normed := []trace.Sample{{Page: 0.5, Timestamp: 0.5}, {Page: 0.4, Timestamp: 0.6}}
	cfg := DefaultConfig()
	cfg.Scoring = ScoringQ16
	if _, err := buildBundle(tight, trace.Normalizer{PageScale: 1, TimeScale: 1}, normed, cfg); err == nil {
		t.Fatal("saturating model accepted for q16 serving")
	} else if !strings.Contains(err.Error(), "saturate") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same model serves fine in float.
	cfg.Scoring = ScoringFloat64
	b, err := buildBundle(tight, trace.Normalizer{PageScale: 1, TimeScale: 1}, normed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Model != tight {
		t.Error("float bundle dropped its float model")
	}
	if sm, ok := b.Scorer.(*gmm.Model); !ok || sm != tight {
		t.Errorf("float bundle serves %T, want the model it was built from", b.Scorer)
	}
}

func TestBuildBundleQ16CalibratesOnQuantizedScale(t *testing.T) {
	t.Parallel()
	m := scoringTestModel(t)
	normed := make([]trace.Sample, 256)
	for i := range normed {
		normed[i] = trace.Sample{Page: float64(i) / 256, Timestamp: 0.1}
	}
	cfg := DefaultConfig()
	cfg.Scoring = ScoringQ16
	b, err := buildBundle(m, trace.Normalizer{PageScale: 1, TimeScale: 1}, normed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := b.Scorer.(*gmm.QuantizedModel)
	if !ok {
		t.Fatalf("q16 bundle serves %T", b.Scorer)
	}
	if b.Model != m {
		t.Error("q16 bundle dropped its float model")
	}
	// The threshold must be attainable by the quantized scorer itself: some
	// calibration points sit below it, some above (ThresholdPct = 0.02).
	below := 0
	for _, s := range normed {
		if q.ScorePageTime(s.Page, s.Timestamp) < b.Threshold {
			below++
		}
	}
	if below == 0 || below == len(normed) {
		t.Errorf("threshold %v does not partition the quantized scores (below = %d/%d)", b.Threshold, below, len(normed))
	}
}

func TestRestoreBundleQ16Saturation(t *testing.T) {
	t.Parallel()
	bs := bundleState{
		Components: []componentState{{Weight: 1, Mean: [2]float64{0.5, 0.5}, Cov: [3]float64{1e-6, 0, 1e-6}}},
		Norm:       trace.Normalizer{PageScale: 1, TimeScale: 1},
		Threshold:  0.5,
	}
	if _, err := bs.restore(ScoringQ16); err == nil {
		t.Fatal("saturating checkpoint model restored for q16")
	}
	b, err := bs.restore(ScoringFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Scorer.(*gmm.Model); !ok {
		t.Fatalf("float restore serves %T", b.Scorer)
	}
}

// allocService builds a one-partition service around a hand-made bundle whose
// threshold splits traffic deterministically: pages in the hot window score
// above it (admitted, then hits), pages far outside score ~0 (bypassed, so
// every access misses straight to the SSD). A non-nil shadow runs beside it.
func allocService(t *testing.T, scoring ScoringKind, shadow *ShadowBundle) (*Service, *Bundle) {
	t.Helper()
	m := scoringTestModel(t)
	cfg := DefaultConfig()
	cfg.Partitions = 1
	cfg.Shards = 1
	cfg.Scoring = scoring
	cfg.Shadow = shadow
	norm := trace.Normalizer{PageScale: 1.0 / 32, TimeScale: 1e-4}
	b := &Bundle{Model: m, Scorer: m, Norm: norm, Threshold: 1e-3}
	if scoring == ScoringQ16 {
		qm, rep := gmm.Quantize(m)
		if rep.Saturated > 0 {
			t.Fatalf("test model saturated %d constants", rep.Saturated)
		}
		b.Scorer = qm
	}
	svc, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return svc, b
}

// TestDrainBatchSteadyStateAllocs pins the serving hot path at zero
// steady-state allocations for both scoring datapaths, and with the shadow
// LSTM replaying every batch through its own cache and network. The warm-up
// must grow every latency histogram's buckets to the octaves the measured
// batches reach — until then Observe still allocates, and the measurement
// would blame the scorer for histogram growth.
func TestDrainBatchSteadyStateAllocs(t *testing.T) {
	net, err := lstm.New(lstm.Config{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	shadow := &ShadowBundle{
		Net:        net,
		Norm:       trace.Normalizer{PageScale: 1.0 / 32, TimeScale: 1e-4},
		Threshold:  0.1,
		Divergence: 0.1,
	}
	for _, tc := range []struct {
		name    string
		scoring ScoringKind
		shadow  *ShadowBundle
	}{
		{ScoringFloat64.String(), ScoringFloat64, nil},
		{ScoringQ16.String(), ScoringQ16, nil},
		{"shadow", ScoringFloat64, shadow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, b := allocService(t, tc.scoring, tc.shadow)
			p := svc.parts[0]
			var seq, cold uint64
			const batch = 512
			fill := func() {
				p.queue = p.queue[:0]
				for i := 0; i < batch; i++ {
					var page uint64
					if i%2 == 0 {
						page = seq % 16 // hot window: admitted, hits
					} else {
						cold++
						page = 1<<20 + cold // never repeats: bypassed misses
					}
					p.queue = append(p.queue, scoredReq{
						req: Request{Page: page, ArrivalNs: int64(seq) * 1000, Seq: seq},
						ts:  int(seq % 2000),
					})
					seq++
				}
			}
			// Every batch repeats the same hit/miss mix, so a few batches
			// reach every octave the measured batches observe.
			for it := 0; it < 4; it++ {
				fill()
				p.drainBatch(b)
			}
			if hits, ops := p.ten[0].hbmHist.Count(), p.hist.Count(); hits == 0 || hits == ops {
				t.Fatalf("warm-up traffic not mixed: %d hits / %d ops", hits, ops)
			}
			var inferences uint64
			if p.shadow != nil {
				inferences = p.shadow.pol.Inferences
			}
			if got := testing.AllocsPerRun(10, func() {
				fill()
				p.drainBatch(b)
			}); got != 0 {
				t.Errorf("drainBatch allocates %v per batch at steady state, want 0", got)
			}
			if p.shadow != nil && p.shadow.pol.Inferences == inferences {
				t.Error("the shadow ran no inference in the measured batches")
			}
		})
	}
}

// countingScorer wraps a bundle's scorer and counts the points scored
// through it. Partitions score on concurrent shard goroutines, so the count
// is atomic.
type countingScorer struct {
	policy.Scorer
	points atomic.Uint64
}

func (c *countingScorer) ScorePageTimeBatchScratch(pages, times, dst []float64, s *gmm.Scratch) {
	c.points.Add(uint64(len(pages)))
	c.Scorer.ScorePageTimeBatchScratch(pages, times, dst, s)
}

// TestScoresOnlyMisses pins the hardware dataflow of Sec. 3.2 with a count:
// the GMM scores a request once if it misses the cache and never otherwise,
// so the points scored equal the partitions' cache misses exactly. Hits and
// host-routed requests are never scored. The runs cover flat timing,
// dataflow timing with host-resident pages, two tenants at their budgets
// (Admit's in-set self-replacement and cross-set release paths) and q16
// scoring.
func TestScoresOnlyMisses(t *testing.T) {
	t.Parallel()
	ws := func(center uint64) *workload.CustomConfig {
		return &workload.CustomConfig{
			Name: "miss-ws", TotalPages: 4096,
			Clusters:  []workload.ClusterSpec{{CenterPage: center, Spread: 60}},
			WriteFrac: 0.2,
		}
	}
	solo := []TenantSpec{{Name: "solo", Custom: ws(600), Seed: 1, RatePerSec: 20e3, Share: 1}}
	pair := []TenantSpec{
		{Name: "alpha", Custom: ws(600), Seed: 1, RatePerSec: 12e3, Share: 0.5},
		{Name: "beta", Custom: ws(2600), Seed: 2, RatePerSec: 8e3, OffsetPages: 1 << 16, Share: 0.5},
	}
	for _, tc := range []struct {
		name    string
		tenants []TenantSpec
		edit    func(*Config)
	}{
		{"flat", solo, func(*Config) {}},
		{"dataflow-host", solo, func(c *Config) {
			c.Device.Timing = TimingDataflow
			c.Device.HostPages = 600
		}},
		{"tenants-at-budget", pair, func(*Config) {}},
		{"q16", solo, func(c *Config) { c.Scoring = ScoringQ16 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Shards = 2
			cfg.Partitions = 8
			cfg.Cache = cache.Config{SizeBytes: 1 << 20, BlockBytes: trace.PageSize, Ways: 8}
			cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000, LloydIters: 2}
			cfg.Transform.LenAccessShot = 256
			cfg.BatchSize = 1024
			cfg.ReportEvery = 0
			cfg.Tenants = tc.tenants
			tc.edit(&cfg)
			warm, err := NewTenantMux(cfg.Tenants)
			if err != nil {
				t.Fatal(err)
			}
			b, err := TrainBundle(warm.Trace(30_000), cfg)
			if err != nil {
				t.Fatal(err)
			}
			counter := &countingScorer{Scorer: b.Scorer}
			b.Scorer = counter
			svc, err := New(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			mux, err := NewTenantMux(cfg.Tenants)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Run(NewMuxSource(mux, 40_000)); err != nil {
				t.Fatal(err)
			}
			var ops, hostOps, misses, evictions uint64
			for _, p := range svc.parts {
				ops += uint64(p.hist.Count())
				hostOps += p.hostOps()
				st := p.cache.Stats()
				misses += st.Misses
				evictions += st.Evictions
			}
			if got := counter.points.Load(); got != misses {
				t.Fatalf("scored %d points for %d cache misses (%d ops, %d host-routed)", got, misses, ops, hostOps)
			}
			// The count only means something when traffic mixes hits and
			// misses — and, per run, reaches the path it is there for.
			if misses == 0 || misses >= ops-hostOps {
				t.Fatalf("traffic not mixed: %d misses of %d device-routed ops", misses, ops-hostOps)
			}
			if tc.name == "dataflow-host" && hostOps == 0 {
				t.Fatal("no request was host-routed")
			}
			if tc.name == "tenants-at-budget" {
				for pi, p := range svc.parts {
					for ti := range tc.tenants {
						if p.pol.Resident(ti) != p.pol.Budget(ti) {
							t.Fatalf("partition %d tenant %d holds %d of its %d-block budget", pi, ti, p.pol.Resident(ti), p.pol.Budget(ti))
						}
					}
				}
				if evictions == 0 {
					t.Fatal("no at-budget admission evicted a block")
				}
			}
		})
	}
}

// TestRescoreResidentReusesBuffers: after one rescore has sized the partition
// buffers, further refreshes allocate only the constant shard fan-out
// closures — never per-resident-block buffer growth (the old path built
// fresh locs/pages/times/scores slices on every refresh).
func TestRescoreResidentReusesBuffers(t *testing.T) {
	svc, b := allocService(t, ScoringFloat64, nil)
	p := svc.parts[0]
	// Make a few hundred blocks resident.
	for i := 0; i < 400; i++ {
		p.queue = append(p.queue, scoredReq{req: Request{Page: uint64(i % 16)}, ts: i % 2000})
	}
	p.drainBatch(b)
	svc.rescoreResident(b) // size rsLocs and the score buffers
	resident := len(p.rsLocs)
	if resident == 0 {
		t.Fatal("warm-up admitted nothing; rescore has no work")
	}
	got := testing.AllocsPerRun(10, func() { svc.rescoreResident(b) })
	if got > 4 {
		t.Errorf("rescoreResident allocates %v per refresh over %d resident blocks; want a scan-independent constant (<= 4)", got, resident)
	}
	if math.IsNaN(b.Threshold) {
		t.Fatal("threshold corrupted by rescore")
	}
}
