package policy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/trace"
)

// Scorer predicts future access frequency from normalized (page, timestamp)
// pairs. Both the float gmm.Model and the fixed-point gmm.QuantizedModel
// satisfy it, through their candidate-mask kernel. Every batching of the same
// points scores the same bits, so callers batch however suits them — the
// serving path and the offline policy score one miss at a time.
type Scorer interface {
	// ScorePageTimeBatchScratch fills dst[i] with the score at (pages[i],
	// times[i]) through s, which may not be shared by concurrent callers;
	// a caller that keeps one scratch per scoring context allocates nothing
	// at steady state.
	ScorePageTimeBatchScratch(pages, times, dst []float64, s *gmm.Scratch)
}

// ScratchBatchScorer is Scorer under its former name, kept as an alias
// because cmd/icgmm-bench still asserts to it.
type ScratchBatchScorer = Scorer

// GMMMode selects which of the paper's three strategies (Fig. 6) the policy
// applies.
type GMMMode int

const (
	// GMMCachingOnly uses the score for admission and falls back to LRU
	// for eviction.
	GMMCachingOnly GMMMode = iota
	// GMMEvictionOnly admits everything and evicts the lowest-scored block.
	GMMEvictionOnly
	// GMMCachingEviction applies the score to both decisions.
	GMMCachingEviction
)

// String names the mode as in the Fig. 6 legend.
func (m GMMMode) String() string {
	switch m {
	case GMMCachingOnly:
		return "gmm-caching-only"
	case GMMEvictionOnly:
		return "gmm-eviction-only"
	default:
		return "gmm-caching-eviction"
	}
}

// ParseGMMMode maps a Fig. 6 legend name, as String spells it, back to its
// mode.
func ParseGMMMode(s string) (GMMMode, error) {
	for _, m := range []GMMMode{GMMCachingOnly, GMMEvictionOnly, GMMCachingEviction} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown GMM mode %q (valid: gmm-caching-only|gmm-eviction-only|gmm-caching-eviction)", s)
}

// GMM is the paper's cache policy engine (Sec. 3.2): on a miss the GMM
// scores the requested page from its page index and transformed timestamp;
// pages scoring below the threshold are not cached (smart caching), and when
// eviction is needed the resident block with the lowest stored score is
// replaced (smart eviction). Hits bypass the GMM entirely, exactly as in the
// hardware dataflow.
type GMM struct {
	base
	scorer    Scorer
	norm      trace.Normalizer
	tcfg      trace.TransformConfig // sanitized: the Algorithm 1 windowing
	threshold float64
	mode      GMMMode

	scores  [][]float64 // per-block GMM score, the eviction key
	lastUse [][]uint64  // LRU metadata for the caching-only fallback

	// curScore/curValid memoize the score computed in Admit so OnInsert
	// stores it without a second inference, mirroring the single GMM PE
	// pass per miss in hardware.
	curScore float64
	curValid bool

	// missPage, missTime and missScore are the live miss's one-point
	// scoring buffers, and scratch its kernel workspace, so a miss scores
	// without allocating.
	missPage, missTime, missScore [1]float64
	scratch                       gmm.Scratch

	// pre holds precomputed per-access scores (index = arrival order,
	// cache.Request.Seq) when the caller batch-scored the replay up front;
	// accesses beyond its length fall back to live inference.
	pre []float64

	// provided is a one-slot score supplied by ProvideScore for the next
	// access; it takes precedence over both pre and live inference.
	provided    float64
	hasProvided bool
}

// GMMConfig assembles a GMM policy.
type GMMConfig struct {
	// Scorer is the trained model (float or quantized).
	Scorer Scorer
	// Normalizer maps raw (page, timestamp) into model coordinates; use the
	// one fitted during training.
	Normalizer trace.Normalizer
	// Transform supplies the Algorithm 1 windowing parameters; it must
	// match the training configuration.
	Transform trace.TransformConfig
	// Threshold is the admission cutoff on the score. CalibrateThreshold
	// derives one from training-set scores.
	Threshold float64
	// Mode picks the Fig. 6 strategy.
	Mode GMMMode
	// Scores optionally supplies precomputed per-access scores aligned with
	// the replay order (entry i belongs to the i-th access of the trace).
	// When set, the policy reads scores instead of invoking the Scorer,
	// letting the replay engine batch all inference up front; batched
	// scoring is bit-identical to live scoring, so results do not change.
	Scores []float64
}

// NewGMM builds the policy engine.
func NewGMM(cfg GMMConfig) *GMM {
	return &GMM{
		scorer:    cfg.Scorer,
		norm:      cfg.Normalizer,
		tcfg:      cfg.Transform.Sanitized(),
		threshold: cfg.Threshold,
		mode:      cfg.Mode,
		pre:       cfg.Scores,
	}
}

// Name implements cache.Policy.
func (p *GMM) Name() string { return p.mode.String() }

// Mode returns the configured strategy.
func (p *GMM) Mode() GMMMode { return p.mode }

// Threshold returns the admission cutoff.
func (p *GMM) Threshold() float64 { return p.threshold }

// ProvideScore supplies the GMM score for the next access, overriding both
// the precomputed-score slice and live inference. A replay that splits one
// request stream across several caches uses it: it batch-scores the stream at
// the stream's own arrival indices and pushes each request's score just
// before presenting the request, since a per-cache index would give the
// wrong Algorithm 1 timestamps. The slot holds exactly one score and is
// consumed by the access that follows; callers must provide a score before
// every access or none.
func (p *GMM) ProvideScore(s float64) {
	p.provided = s
	p.hasProvided = true
}

// Attach implements cache.Policy.
func (p *GMM) Attach(numSets, ways int) {
	p.base.Attach(numSets, ways)
	p.scores = make([][]float64, numSets)
	for i := range p.scores {
		p.scores[i] = make([]float64, ways)
	}
	p.lastUse = p.meta()
}

// OnAccess implements cache.Policy: it retires the previous access's
// memoized score.
func (p *GMM) OnAccess(cache.Request) { p.curValid = false }

// score returns the GMM score for the current request: a provided score,
// the precomputed per-access score when the replay was batch-scored up
// front, or one live inference at the request's Algorithm 1 timestamp,
// which its arrival index fixes — hits advance the clock too.
func (p *GMM) score(req cache.Request) float64 {
	if p.curValid {
		return p.curScore
	}
	if p.hasProvided {
		p.curScore = p.provided
		p.hasProvided = false
	} else if req.Seq < uint64(len(p.pre)) {
		p.curScore = p.pre[req.Seq]
	} else {
		ts := trace.Timestamp(req.Seq, p.tcfg.LenWindow, p.tcfg.LenAccessShot)
		p.missPage[0], p.missTime[0] = p.norm.ApplyPageTime(req.Page, ts)
		p.scorer.ScorePageTimeBatchScratch(p.missPage[:], p.missTime[:], p.missScore[:], &p.scratch)
		p.curScore = p.missScore[0]
	}
	p.curValid = true
	return p.curScore
}

// OnHit implements cache.Policy. Hits bypass the GMM (Sec. 3.2); only the
// LRU fallback metadata is refreshed.
func (p *GMM) OnHit(setIdx, way int, req cache.Request) {
	p.lastUse[setIdx][way] = req.Seq
}

// Admit implements cache.Policy.
func (p *GMM) Admit(req cache.Request) bool {
	if p.mode == GMMEvictionOnly {
		// Smart eviction still needs the score recorded at insertion.
		p.score(req)
		return true
	}
	return p.score(req) >= p.threshold
}

// Victim implements cache.Policy.
func (p *GMM) Victim(setIdx int, blocks []cache.BlockView) int {
	if p.mode == GMMCachingOnly {
		// LRU fallback.
		best, bestUse := 0, p.lastUse[setIdx][0]
		for w := 1; w < len(blocks); w++ {
			if p.lastUse[setIdx][w] < bestUse {
				best, bestUse = w, p.lastUse[setIdx][w]
			}
		}
		return best
	}
	best, bestScore := 0, p.scores[setIdx][0]
	for w := 1; w < len(blocks); w++ {
		if p.scores[setIdx][w] < bestScore {
			best, bestScore = w, p.scores[setIdx][w]
		}
	}
	return best
}

// OnEvict implements cache.Policy.
func (p *GMM) OnEvict(int, int, uint64) {}

// OnInsert implements cache.Policy: the score computed on the miss is stored
// alongside the tag, substituting for the LRU counter (Sec. 3.2).
func (p *GMM) OnInsert(setIdx, way int, req cache.Request) {
	p.scores[setIdx][way] = p.score(req)
	p.lastUse[setIdx][way] = req.Seq
}

// CalibrateThreshold chooses an admission threshold as the pct-quantile
// (0..1) of the model's scores over the (normalized) training samples.
// Rejecting the lowest-scoring pct of training mass makes the threshold
// track each benchmark's density scale, since absolute GMM densities vary
// by orders of magnitude across traces.
func CalibrateThreshold(s Scorer, samples []trace.Sample, pct float64) float64 {
	return CalibrateThresholds(s, samples, []float64{pct})[0]
}

// CalibrateThresholds computes the thresholds for several quantiles from a
// single (batched) scoring pass over the samples — the path the empirical
// threshold sweep uses, where re-scoring the training set per candidate
// would dominate the sweep's cost.
func CalibrateThresholds(s Scorer, samples []trace.Sample, pcts []float64) []float64 {
	out := make([]float64, len(pcts))
	if len(samples) == 0 {
		return out
	}
	// Subsample large training sets; the quantile is insensitive to it.
	const maxN = 8192
	stride := 1
	if len(samples) > maxN {
		stride = len(samples) / maxN
	}
	pages := make([]float64, 0, maxN)
	times := make([]float64, 0, maxN)
	for i := 0; i < len(samples); i += stride {
		pages = append(pages, samples[i].Page)
		times = append(times, samples[i].Timestamp)
	}
	scores := make([]float64, len(pages))
	var scratch gmm.Scratch
	s.ScorePageTimeBatchScratch(pages, times, scores, &scratch)
	kept := scores[:0]
	for _, sc := range scores {
		if !math.IsNaN(sc) {
			kept = append(kept, sc)
		}
	}
	if len(kept) == 0 {
		return out
	}
	sort.Float64s(kept)
	for i, pct := range pcts {
		if pct < 0 {
			pct = 0
		}
		if pct > 1 {
			pct = 1
		}
		out[i] = kept[int(pct*float64(len(kept)-1))]
	}
	return out
}
