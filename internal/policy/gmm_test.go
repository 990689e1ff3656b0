package policy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// stubScorer scores a configured set of hot pages high and everything else
// low, with normalization mapping page p to p/1000.
type stubScorer struct {
	hot map[int]bool
}

func (s stubScorer) ScorePageTimeBatchScratch(pages, _, dst []float64, _ *gmm.Scratch) {
	for i, page := range pages {
		dst[i] = 0.01
		if s.hot[int(page*1000+0.5)] {
			dst[i] = 1.0
		}
	}
}

func stubNorm() trace.Normalizer {
	return trace.Normalizer{PageScale: 1.0 / 1000, TimeScale: 1}
}

func newTestGMM(mode GMMMode, hot ...int) *GMM {
	hs := map[int]bool{}
	for _, h := range hot {
		hs[h] = true
	}
	return NewGMM(GMMConfig{
		Scorer:     stubScorer{hot: hs},
		Normalizer: stubNorm(),
		Transform:  trace.DefaultTransformConfig(),
		Threshold:  0.5,
		Mode:       mode,
	})
}

func TestGMMNames(t *testing.T) {
	if newTestGMM(GMMCachingOnly).Name() != "gmm-caching-only" {
		t.Error("caching-only name wrong")
	}
	if newTestGMM(GMMEvictionOnly).Name() != "gmm-eviction-only" {
		t.Error("eviction-only name wrong")
	}
	p := newTestGMM(GMMCachingEviction)
	if p.Name() != "gmm-caching-eviction" {
		t.Error("combined name wrong")
	}
	if p.Mode() != GMMCachingEviction {
		t.Error("Mode accessor wrong")
	}
	if p.Threshold() != 0.5 {
		t.Error("Threshold accessor wrong")
	}
}

func TestGMMAdmissionFiltersColdPages(t *testing.T) {
	p := newTestGMM(GMMCachingEviction, 1, 2)
	c := tinyCache(t, p)
	c.Access(1, false)  // hot: admitted
	c.Access(50, false) // cold: bypassed
	if !c.Contains(1) {
		t.Error("hot page not cached")
	}
	if c.Contains(50) {
		t.Error("cold page cached despite low score")
	}
	st := c.Stats()
	if st.Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1", st.Bypasses)
	}
}

func TestGMMEvictionOnlyAdmitsEverything(t *testing.T) {
	p := newTestGMM(GMMEvictionOnly, 1, 2, 3)
	c := tinyCache(t, p)
	c.Access(50, false) // cold but admitted in eviction-only mode
	if !c.Contains(50) {
		t.Error("eviction-only mode must admit cold pages")
	}
}

func TestGMMEvictsLowestScore(t *testing.T) {
	// Eviction-only mode admits everything, so the cold page 4 enters with
	// a low stored score and must be the next victim.
	pe := newTestGMM(GMMEvictionOnly, 1, 2, 3) // page 4 cold
	ce := tinyCache(t, pe)
	access(ce, 1, 2, 3, 4) // 4 enters with low score
	res := ce.Access(5, false)
	if !res.Evicted || res.VictimPage != 4 {
		t.Errorf("victim = %+v, want page 4 (lowest score)", res)
	}
}

func TestGMMCachingOnlyUsesLRUEviction(t *testing.T) {
	// All pages hot so admission always passes; eviction must follow LRU.
	p := newTestGMM(GMMCachingOnly, 1, 2, 3, 4, 5, 6)
	c := tinyCache(t, p)
	access(c, 1, 2, 3, 4)
	access(c, 1) // 2 becomes LRU
	res := c.Access(5, false)
	if res.VictimPage != 2 {
		t.Errorf("victim = %d, want 2 (LRU fallback)", res.VictimPage)
	}
}

func TestGMMScoreMemoizedPerAccess(t *testing.T) {
	// The score computed during Admit must be reused by OnInsert; a counting
	// scorer checks we run exactly one inference per miss.
	cs := &countingScorer{}
	p := NewGMM(GMMConfig{
		Scorer:     cs,
		Normalizer: stubNorm(),
		Transform:  trace.DefaultTransformConfig(),
		Threshold:  0,
		Mode:       GMMCachingEviction,
	})
	c := tinyCache(t, p)
	c.Access(1, false)
	c.Access(2, false)
	if cs.calls != 2 {
		t.Errorf("scorer called %d times for 2 misses, want 2", cs.calls)
	}
	c.Access(1, false) // hit: no inference
	if cs.calls != 2 {
		t.Errorf("hit triggered inference (calls = %d)", cs.calls)
	}
}

type countingScorer struct{ calls int }

func (c *countingScorer) ScorePageTimeBatchScratch(pages, _, dst []float64, _ *gmm.Scratch) {
	for i := range pages {
		c.calls++
		dst[i] = 1
	}
}

// fitHotBand fits a K=4 GMM on a trace cycling through the hot band of
// pages 100..139, returning the model, its normalizer and the normalized
// training samples.
func fitHotBand(t *testing.T) (*gmm.Model, trace.Normalizer, []trace.Sample) {
	t.Helper()
	var tr trace.Trace
	for i := 0; i < 30000; i++ {
		page := uint64(100 + i%40) // hot band: pages 100..139
		tr = append(tr, trace.Record{Op: trace.Read, Addr: page << trace.PageShift})
	}
	tr.Stamp()
	res, norm, err := gmm.FitTrace(tr, trace.DefaultTransformConfig(),
		gmm.TrainConfig{K: 4, MaxIters: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model, norm, norm.ApplyAll(trace.Preprocess(tr, trace.DefaultTransformConfig()))
}

func TestGMMWithRealModel(t *testing.T) {
	// Train a real GMM on a two-cluster trace and check the policy admits
	// hot-cluster pages and rejects cold ones.
	m, norm, samples := fitHotBand(t)
	th := CalibrateThreshold(m, samples, 0.05)
	p := NewGMM(GMMConfig{
		Scorer:     m,
		Normalizer: norm,
		Transform:  trace.DefaultTransformConfig(),
		Threshold:  th,
		Mode:       GMMCachingEviction,
	})
	c, err := cache.New(cache.Config{SizeBytes: 64 * 4096, BlockBytes: 4096, Ways: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(120, false) // hot band page
	if !c.Contains(120) {
		t.Error("hot page rejected by trained model")
	}
	c.Access(100000, false) // far outside the trained distribution
	if c.Contains(100000) {
		t.Error("distant cold page admitted")
	}
}

func TestCalibrateThreshold(t *testing.T) {
	m, err := gmm.New([]gmm.Component{
		{Weight: 1, Mean: linalg.V2(0.5, 0.5), Cov: linalg.SymDiag(0.01, 0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var samples []trace.Sample
	for i := 0; i < 1000; i++ {
		samples = append(samples, trace.Sample{Page: 0.5, Timestamp: 0.5})
	}
	th := CalibrateThreshold(m, samples, 0.1)
	want := m.ScorePageTime(0.5, 0.5)
	if math.Abs(th-want) > 1e-9 {
		t.Errorf("threshold = %v, want %v for identical samples", th, want)
	}
	if CalibrateThreshold(m, nil, 0.1) != 0 {
		t.Error("empty samples should give 0")
	}
	// Percentile clamping.
	if CalibrateThreshold(m, samples, -5) != want {
		t.Error("negative pct should clamp to 0")
	}
	if CalibrateThreshold(m, samples, 5) != want {
		t.Error("pct > 1 should clamp to 1")
	}
}

func TestCalibrateThresholdOrdering(t *testing.T) {
	m, err := gmm.New([]gmm.Component{
		{Weight: 1, Mean: linalg.V2(0, 0), Cov: linalg.SymDiag(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Samples at increasing distance from the mean → decreasing scores.
	var samples []trace.Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, trace.Sample{Page: float64(i) * 0.05, Timestamp: 0})
	}
	lo := CalibrateThreshold(m, samples, 0.1)
	hi := CalibrateThreshold(m, samples, 0.9)
	if lo >= hi {
		t.Errorf("threshold not monotone in pct: %v >= %v", lo, hi)
	}
}

func TestGMMTimestampAdvancesOnHits(t *testing.T) {
	// Algorithm 1's clock counts every request, hit or miss. After 32
	// requests (LenWindow) the timestamp must step; verify through a scorer
	// that records the timestamp it sees.
	rec := &timeRecordingScorer{}
	p := NewGMM(GMMConfig{
		Scorer:     rec,
		Normalizer: trace.Normalizer{PageScale: 1, TimeScale: 1},
		Transform:  trace.TransformConfig{LenWindow: 4, LenAccessShot: 100},
		Threshold:  -1,
		Mode:       GMMCachingEviction,
	})
	c := tinyCache(t, p)
	c.Access(1, false) // miss at window 0
	access(c, 1, 1, 1) // hits advance the clock (requests 2-4)
	c.Access(2, false) // 5th request → window 1
	if len(rec.times) != 2 {
		t.Fatalf("scorer saw %d inferences, want 2", len(rec.times))
	}
	if rec.times[0] != 0 || rec.times[1] != 1 {
		t.Errorf("timestamps = %v, want [0 1]", rec.times)
	}
}

type timeRecordingScorer struct{ times []float64 }

func (s *timeRecordingScorer) ScorePageTimeBatchScratch(_, times, dst []float64, _ *gmm.Scratch) {
	for i, ts := range times {
		s.times = append(s.times, ts)
		dst[i] = 1
	}
}

func TestGMMProvideScoreOverridesInference(t *testing.T) {
	// No hot pages: live inference would score 0.01, below the 0.5 cutoff.
	p := newTestGMM(GMMCachingEviction)
	p.Attach(4, 2)

	// Provided score above threshold: admitted despite cold inference score.
	p.ProvideScore(0.9)
	p.OnAccess(cache.Request{Page: 7, Seq: 0})
	if !p.Admit(cache.Request{Page: 7, Seq: 0}) {
		t.Fatal("provided score 0.9 not admitted")
	}
	// The provided score is what OnInsert stores as the eviction key.
	p.OnInsert(int(7%4), 0, cache.Request{Page: 7, Seq: 0})
	if got := p.scores[7%4][0]; got != 0.9 {
		t.Fatalf("stored score = %v, want provided 0.9", got)
	}

	// Slot consumed: the next access falls back to live inference (cold).
	p.OnAccess(cache.Request{Page: 8, Seq: 1})
	if p.Admit(cache.Request{Page: 8, Seq: 1}) {
		t.Fatal("stale provided score leaked into the next access")
	}

	// Provided below threshold: bypassed.
	p.ProvideScore(0.1)
	p.OnAccess(cache.Request{Page: 9, Seq: 2})
	if p.Admit(cache.Request{Page: 9, Seq: 2}) {
		t.Fatal("provided score 0.1 admitted")
	}
}

// TestGMMThresholdGatesAdmission: the configured cutoff decides admission —
// a hot page passes the default threshold and bypasses one raised above its
// score.
func TestGMMThresholdGatesAdmission(t *testing.T) {
	p := newTestGMM(GMMCachingEviction, 3)
	p.Attach(4, 2)
	if p.Threshold() != 0.5 {
		t.Fatalf("initial threshold = %v", p.Threshold())
	}
	p.OnAccess(cache.Request{Page: 3, Seq: 0})
	if !p.Admit(cache.Request{Page: 3, Seq: 0}) {
		t.Fatal("hot page rejected at the default threshold")
	}
	// Raise the cutoff above the hot score: now even hot pages bypass.
	raised := NewGMM(GMMConfig{
		Scorer:     stubScorer{hot: map[int]bool{3: true}},
		Normalizer: stubNorm(),
		Transform:  trace.DefaultTransformConfig(),
		Threshold:  2,
		Mode:       GMMCachingEviction,
	})
	raised.Attach(4, 2)
	raised.OnAccess(cache.Request{Page: 3, Seq: 1})
	if raised.Admit(cache.Request{Page: 3, Seq: 1}) {
		t.Fatal("hot page admitted past raised threshold")
	}
}

// TestGMMLiveMissAllocs pins the offline policy's live miss: on a fitted
// model, float and Q16.16 alike, it scores the dense reference's bits at the
// request's Algorithm 1 timestamp, and once the policy's scratch has grown to
// the model's K it allocates nothing.
func TestGMMLiveMissAllocs(t *testing.T) {
	m, norm, _ := fitHotBand(t)
	qm, rep := gmm.Quantize(m)
	if rep.Saturated > 0 {
		t.Fatalf("test model saturated %d constants", rep.Saturated)
	}
	tcfg := trace.TransformConfig{LenWindow: 4, LenAccessShot: 50}
	for _, c := range []struct {
		name   string
		scorer Scorer
		dense  func(page, ts float64) float64
	}{
		{"float64", m, m.ScorePageTime},
		{"q16", qm, qm.ScorePageTime},
	} {
		p := NewGMM(GMMConfig{Scorer: c.scorer, Normalizer: norm, Transform: tcfg, Mode: GMMCachingEviction})
		p.Attach(16, 4)
		var seq uint64
		miss := func() {
			req := cache.Request{Page: 90 + seq%60, Seq: seq}
			p.OnAccess(req)
			p.Admit(req)
			seq++
		}
		for i := 0; i < 300; i++ {
			miss()
			np, nt := norm.ApplyPageTime(90+uint64(i%60), trace.Timestamp(uint64(i), tcfg.LenWindow, tcfg.LenAccessShot))
			if want := c.dense(np, nt); p.curScore != want {
				t.Fatalf("%s: miss %d scored %v, dense reference %v", c.name, i, p.curScore, want)
			}
		}
		if got := testing.AllocsPerRun(200, miss); got != 0 {
			t.Errorf("%s: a live miss allocates %v times, want 0", c.name, got)
		}
	}
}

func TestParseGMMMode(t *testing.T) {
	for _, m := range []GMMMode{GMMCachingOnly, GMMEvictionOnly, GMMCachingEviction} {
		if got, err := ParseGMMMode(m.String()); err != nil || got != m {
			t.Errorf("ParseGMMMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseGMMMode("lru"); err == nil || !strings.Contains(err.Error(), "gmm-caching-eviction") {
		t.Errorf("ParseGMMMode(lru) error %v does not list the valid modes", err)
	}
}
