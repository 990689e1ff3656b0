package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gmm"
	"repro/internal/linalg"
	"repro/internal/trace"
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
// every access misses straight to the SSD).
func allocService(t *testing.T, scoring ScoringKind) (*Service, *Bundle) {
	t.Helper()
	m := scoringTestModel(t)
	cfg := DefaultConfig()
	cfg.Partitions = 1
	cfg.Shards = 1
	cfg.Scoring = scoring
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
// steady-state allocations for both scoring datapaths. The warm-up must grow
// every latency histogram's buckets to the octaves the measured batches reach
// — until then Observe still allocates, and the measurement would blame the
// scorer for histogram growth.
func TestDrainBatchSteadyStateAllocs(t *testing.T) {
	for _, scoring := range []ScoringKind{ScoringFloat64, ScoringQ16} {
		t.Run(scoring.String(), func(t *testing.T) {
			svc, b := allocService(t, scoring)
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
			if p.batchHits == 0 || p.batchHits == p.batchOps {
				t.Fatalf("warm-up traffic not mixed: %d hits / %d ops", p.batchHits, p.batchOps)
			}
			if got := testing.AllocsPerRun(10, func() {
				fill()
				p.drainBatch(b)
			}); got != 0 {
				t.Errorf("drainBatch allocates %v per batch at steady state, want 0", got)
			}
		})
	}
}

// TestRescoreResidentReusesBuffers: after one rescore has sized the partition
// buffers, further refreshes allocate only the constant shard fan-out
// closures — never per-resident-block buffer growth (the old path built
// fresh locs/pages/times/scores slices on every refresh).
func TestRescoreResidentReusesBuffers(t *testing.T) {
	svc, b := allocService(t, ScoringFloat64)
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
