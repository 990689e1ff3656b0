package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/lstm"
	"repro/internal/trace"
)

// LSTMPolicy adapts the Table 2 LSTM baseline into a cache policy engine in
// the DeepCache/Glider mold: it maintains a sliding window of the last
// SeqLen normalized (page, timestamp) inputs and, on each miss, runs one
// sequence inference to predict the requested page's future access
// frequency. The prediction substitutes for the GMM score in both the
// admission decision and the per-block eviction key, so the two engines are
// compared under identical cache mechanics — exactly the paper's framing,
// where the LSTM's problem is not decision quality but the cost of every
// one of those inferences (46.3 ms vs 3 µs in hardware).
type LSTMPolicy struct {
	base
	net       *lstm.Network
	norm      trace.Normalizer
	tcfg      trace.TransformConfig // sanitized: the Algorithm 1 windowing
	threshold float64
	evict     bool // use predictions for eviction
	admit     bool // use predictions for admission

	window  [][]float64 // ring of the last SeqLen inputs
	wpos    int
	wcount  int
	seqBuf  [][]float64
	scratch *lstm.Scratch // this policy's own: policies may share net
	scores  [][]float64
	lastUse [][]uint64

	curScore float64
	curValid bool

	// Inferences counts sequence evaluations, the quantity the hardware
	// cost model multiplies by 46.3 ms.
	Inferences uint64
}

// LSTMPolicyConfig assembles the adapter.
type LSTMPolicyConfig struct {
	// Net is the trained (or untrained, for cost studies) network.
	Net *lstm.Network
	// Normalizer maps raw inputs into the network's training coordinates.
	Normalizer trace.Normalizer
	// Transform supplies the Algorithm 1 windowing parameters.
	Transform trace.TransformConfig
	// Threshold is the admission cutoff on the predicted frequency.
	Threshold float64
	// Admission / Eviction select which decisions use the prediction;
	// disabled decisions fall back to LRU semantics.
	Admission, Eviction bool
}

// NewLSTMPolicy builds the adapter. The network must take InputDim 2, the
// window's (page, timestamp) row; any other shape panics, since it could
// never score a window.
func NewLSTMPolicy(cfg LSTMPolicyConfig) *LSTMPolicy {
	ncfg := cfg.Net.Config()
	if ncfg.InputDim != 2 {
		panic(fmt.Sprintf("policy: lstm network input dim %d, want 2 (the window's page, timestamp row)", ncfg.InputDim))
	}
	p := &LSTMPolicy{
		net:       cfg.Net,
		norm:      cfg.Normalizer,
		tcfg:      cfg.Transform.Sanitized(),
		threshold: cfg.Threshold,
		admit:     cfg.Admission,
		evict:     cfg.Eviction,
		window:    make([][]float64, ncfg.SeqLen),
		seqBuf:    make([][]float64, ncfg.SeqLen),
		scratch:   cfg.Net.NewScratch(),
	}
	for i := range p.window {
		p.window[i] = []float64{0, 0}
	}
	return p
}

// Name implements cache.Policy.
func (p *LSTMPolicy) Name() string { return "lstm" }

// Attach implements cache.Policy.
func (p *LSTMPolicy) Attach(numSets, ways int) {
	p.base.Attach(numSets, ways)
	p.scores = make([][]float64, numSets)
	for i := range p.scores {
		p.scores[i] = make([]float64, ways)
	}
	p.lastUse = p.meta()
}

// OnAccess implements cache.Policy: every request shifts the observation
// window, stamped with its Algorithm 1 timestamp (a pure function of its
// arrival index, as in the GMM engine).
func (p *LSTMPolicy) OnAccess(req cache.Request) {
	ts := trace.Timestamp(req.Seq, p.tcfg.LenWindow, p.tcfg.LenAccessShot)
	// Overwrite the oldest row in place: State deep-copies the rows and
	// RestoreState copies them back, so nothing outside the ring aliases it.
	row := p.window[p.wpos]
	row[0], row[1] = p.norm.ApplyPageTime(req.Page, ts)
	p.wpos = (p.wpos + 1) % len(p.window)
	if p.wcount < len(p.window) {
		p.wcount++
	}
	p.curValid = false
}

// score runs one sequence inference over the current window. NewLSTMPolicy
// checked the network's shape against the window's and built the scratch
// from the network itself, so Forward cannot fail here.
func (p *LSTMPolicy) score() float64 {
	if p.curValid {
		return p.curScore
	}
	// Assemble the window in chronological order.
	n := len(p.window)
	for i := 0; i < n; i++ {
		p.seqBuf[i] = p.window[(p.wpos+i)%n]
	}
	out, err := p.net.Forward(p.seqBuf, p.scratch)
	if err != nil {
		panic(err)
	}
	p.Inferences++
	p.curScore = out
	p.curValid = true
	return out
}

// OnHit implements cache.Policy.
func (p *LSTMPolicy) OnHit(setIdx, way int, req cache.Request) {
	p.lastUse[setIdx][way] = req.Seq
}

// Admit implements cache.Policy.
func (p *LSTMPolicy) Admit(req cache.Request) bool {
	if !p.admit {
		if p.evict {
			p.score()
		}
		return true
	}
	return p.score() >= p.threshold
}

// Victim implements cache.Policy.
func (p *LSTMPolicy) Victim(setIdx int, blocks []cache.BlockView) int {
	if !p.evict {
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
func (p *LSTMPolicy) OnEvict(int, int, uint64) {}

// OnInsert implements cache.Policy.
func (p *LSTMPolicy) OnInsert(setIdx, way int, req cache.Request) {
	if p.evict {
		p.scores[setIdx][way] = p.score()
	}
	p.lastUse[setIdx][way] = req.Seq
}

// LSTMPolicyState is the policy's full mutable state minus the network
// weights: the observation window ring, the per-block score and recency
// tables, and the memoized current score. Weights are excluded deliberately —
// a shadow policy retrains them deterministically from the spec, so
// checkpoints stay small. The Algorithm 1 clock is not here either: it is a
// function of the attached cache's arrival index, which the cache's own
// state carries.
type LSTMPolicyState struct {
	Window     [][]float64 `json:"window"`
	WPos       int         `json:"wpos"`
	WCount     int         `json:"wcount"`
	Scores     [][]float64 `json:"scores"`
	LastUse    [][]uint64  `json:"last_use"`
	CurScore   float64     `json:"cur_score,omitempty"`
	CurValid   bool        `json:"cur_valid,omitempty"`
	Inferences uint64      `json:"inferences,omitempty"`
}

// State exports the policy's mutable state.
func (p *LSTMPolicy) State() LSTMPolicyState {
	s := LSTMPolicyState{
		Window:     make([][]float64, len(p.window)),
		WPos:       p.wpos,
		WCount:     p.wcount,
		Scores:     make([][]float64, len(p.scores)),
		LastUse:    make([][]uint64, len(p.lastUse)),
		CurScore:   p.curScore,
		CurValid:   p.curValid,
		Inferences: p.Inferences,
	}
	for i := range p.window {
		s.Window[i] = append([]float64(nil), p.window[i]...)
	}
	for i := range p.scores {
		s.Scores[i] = append([]float64(nil), p.scores[i]...)
	}
	for i := range p.lastUse {
		s.LastUse[i] = append([]uint64(nil), p.lastUse[i]...)
	}
	return s
}

// RestoreState rewinds the policy to an exported state. The receiver must
// have been built with the same network shape and attached to the same cache
// geometry as the exporter.
func (p *LSTMPolicy) RestoreState(s LSTMPolicyState) error {
	if len(s.Window) != len(p.window) {
		return fmt.Errorf("policy: lstm state window length %d, want %d", len(s.Window), len(p.window))
	}
	in := p.net.Config().InputDim
	for i, row := range s.Window {
		if len(row) != in {
			return fmt.Errorf("policy: lstm state window row %d has %d dims, want %d", i, len(row), in)
		}
	}
	if s.WPos < 0 || s.WPos >= len(p.window) || s.WCount < 0 || s.WCount > len(p.window) {
		return fmt.Errorf("policy: lstm state window cursor (%d, %d) outside ring of %d", s.WPos, s.WCount, len(p.window))
	}
	if len(s.Scores) != len(p.scores) || len(s.LastUse) != len(p.lastUse) {
		return fmt.Errorf("policy: lstm state has %d/%d sets, policy has %d", len(s.Scores), len(s.LastUse), len(p.scores))
	}
	for i := range s.Scores {
		if len(s.Scores[i]) != len(p.scores[i]) || len(s.LastUse[i]) != len(p.lastUse[i]) {
			return fmt.Errorf("policy: lstm state set %d way count mismatch", i)
		}
	}
	for i := range s.Window {
		p.window[i] = append([]float64(nil), s.Window[i]...)
	}
	for i := range s.Scores {
		copy(p.scores[i], s.Scores[i])
		copy(p.lastUse[i], s.LastUse[i])
	}
	p.wpos, p.wcount = s.WPos, s.WCount
	p.curScore, p.curValid = s.CurScore, s.CurValid
	p.Inferences = s.Inferences
	return nil
}

// TrainLSTMOnTrace fits the network to predict page access frequency from
// the preprocessed trace: for each position, the input is the window of
// SeqLen normalized samples ending there and the target is the page's
// relative access frequency over the trace. maxExamples bounds the training
// set (BPTT over a 3x128 network is expensive — the paper's point).
func TrainLSTMOnTrace(net *lstm.Network, t trace.Trace, tcfg trace.TransformConfig, maxExamples int, epochs int) (*lstm.TrainResult, trace.Normalizer, error) {
	samples := trace.Preprocess(t, tcfg)
	norm := trace.FitNormalizer(samples)
	normed := norm.ApplyAll(samples)

	// Per-page frequency as the regression target, normalized by the
	// hottest page.
	freq := make(map[float64]float64, 1024)
	for _, s := range samples {
		freq[s.Page]++
	}
	maxF := 1.0
	for _, f := range freq {
		if f > maxF {
			maxF = f
		}
	}

	seqLen := net.Config().SeqLen
	if maxExamples <= 0 {
		maxExamples = 512
	}
	stride := 1
	if avail := len(normed) - seqLen; avail > maxExamples {
		stride = avail / maxExamples
	}
	var ex []lstm.Sample
	for i := seqLen; i < len(normed) && len(ex) < maxExamples; i += stride {
		seq := make([][]float64, seqLen)
		for j := 0; j < seqLen; j++ {
			s := normed[i-seqLen+j]
			seq[j] = []float64{s.Page, s.Timestamp}
		}
		ex = append(ex, lstm.Sample{
			Seq:    seq,
			Target: freq[samples[i-1].Page] / maxF,
		})
	}
	cfg := lstm.DefaultTrainConfig()
	if epochs > 0 {
		cfg.Epochs = epochs
	}
	res, err := net.Train(ex, cfg)
	return res, norm, err
}
