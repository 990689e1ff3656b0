package serve

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/hbm"
	"repro/internal/lstm"
	"repro/internal/policy"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ShadowSpec configures the shadow admission policy: an LSTM scorer (the
// paper's Table 2 baseline) trained on the same warm-up trace as the live
// GMM and run over the same traffic in a parallel set of shadow caches. The
// shadow never touches live cache state or the serving clock — it exists to
// answer "what would the other policy have done" with per-tenant hit-ratio
// and latency deltas in the interval records. Presence of the block enables
// the shadow; "lstm" is the only shadow policy.
type ShadowSpec struct {
	// Policy names the shadow scorer; "" and "lstm" both mean the LSTM.
	Policy string `json:"policy,omitempty"`
	// Hidden/Layers/SeqLen shape the network (defaults 32 / 1 / 8).
	Hidden int `json:"hidden,omitempty"`
	Layers int `json:"layers,omitempty"`
	SeqLen int `json:"seq_len,omitempty"`
	// Threshold is the admission cutoff on the predicted access frequency
	// (default 0.1).
	Threshold float64 `json:"threshold,omitempty"`
	// Epochs/MaxExamples bound training (defaults 2 / 256 — BPTT is the
	// expensive part, which is the paper's point).
	Epochs      int `json:"epochs,omitempty"`
	MaxExamples int `json:"max_examples,omitempty"`
	// Seed drives weight initialization (default: the training seed).
	Seed int64 `json:"seed,omitempty"`
	// Divergence is the absolute hit-ratio gap between shadow and live,
	// per tenant, beyond which a shadow_divergence event fires at each
	// reporting interval (default 0.1).
	Divergence float64 `json:"divergence,omitempty"`
}

// Validate checks the shadow parameters.
func (sh ShadowSpec) Validate() error {
	if sh.Policy != "" && sh.Policy != "lstm" {
		return fmt.Errorf("serve: spec shadow policy %q unknown (valid: lstm)", sh.Policy)
	}
	if sh.Hidden < 0 || sh.Layers < 0 || sh.SeqLen < 0 || sh.Epochs < 0 || sh.MaxExamples < 0 {
		return fmt.Errorf("serve: spec shadow has a negative dimension")
	}
	if sh.Divergence < 0 || sh.Divergence > 1 {
		return fmt.Errorf("serve: spec shadow divergence %v outside [0,1]", sh.Divergence)
	}
	return nil
}

func (sh ShadowSpec) effHidden() int {
	if sh.Hidden == 0 {
		return 32
	}
	return sh.Hidden
}

func (sh ShadowSpec) effLayers() int {
	if sh.Layers == 0 {
		return 1
	}
	return sh.Layers
}

func (sh ShadowSpec) effSeqLen() int {
	if sh.SeqLen == 0 {
		return 8
	}
	return sh.SeqLen
}

func (sh ShadowSpec) effThreshold() float64 {
	if sh.Threshold == 0 {
		return 0.1
	}
	return sh.Threshold
}

func (sh ShadowSpec) effEpochs() int {
	if sh.Epochs == 0 {
		return 2
	}
	return sh.Epochs
}

func (sh ShadowSpec) effMaxExamples() int {
	if sh.MaxExamples == 0 {
		return 256
	}
	return sh.MaxExamples
}

func (sh ShadowSpec) effSeed(trainSeed int64) int64 {
	if sh.Seed == 0 {
		return trainSeed
	}
	return sh.Seed
}

func (sh ShadowSpec) effDivergence() float64 {
	if sh.Divergence == 0 {
		return 0.1
	}
	return sh.Divergence
}

// ShadowBundle is the trained shadow scoring state: one network shared by
// every partition's shadow policy (Forward only reads it, and each
// partition's policy owns the lstm.Scratch its inferences run in, so
// concurrent partition drains are safe) plus the normalizer fitted with it.
// Weights are never checkpointed — training is deterministic from the spec,
// so Open and Resume both rebuild the identical bundle.
type ShadowBundle struct {
	Net        *lstm.Network
	Norm       trace.Normalizer
	Threshold  float64
	Divergence float64
}

// trainShadowBundle trains the spec's shadow network on the warm-up trace.
func trainShadowBundle(spec Spec, cfg Config) (*ShadowBundle, error) {
	sh := spec.Shadow
	net, err := lstm.New(lstm.Config{
		InputDim:  2,
		HiddenDim: sh.effHidden(),
		Layers:    sh.effLayers(),
		SeqLen:    sh.effSeqLen(),
	}, sh.effSeed(spec.trainSeed()))
	if err != nil {
		return nil, fmt.Errorf("serve: shadow network: %w", err)
	}
	warm, err := spec.warmTrace()
	if err != nil {
		return nil, err
	}
	if _, norm, err := policy.TrainLSTMOnTrace(net, warm, cfg.Transform, sh.effMaxExamples(), sh.effEpochs()); err != nil {
		return nil, fmt.Errorf("serve: shadow training: %w", err)
	} else {
		return &ShadowBundle{
			Net:        net,
			Norm:       norm,
			Threshold:  sh.effThreshold(),
			Divergence: sh.effDivergence(),
		}, nil
	}
}

// shadowTenantStats is one (partition, tenant) shadow accounting cell:
// cumulative, exactly like the live tenantPartStats counters it is compared
// against.
type shadowTenantStats struct {
	ops      uint64
	hits     uint64
	latSumNs int64
}

// shadowPart is one partition's shadow device: its own cache and LSTM
// policy fed the identical request sequence as the live partition, with
// service latency modeled as flat per-outcome constants (link round trip
// plus HBM hit / SSD read / SSD write penalties — no queueing, no inference
// overhead; the shadow estimates decision quality, not device contention).
// Host-routed requests (dataflow timing) never reach the live cache either,
// so the shadow skips them too. Touched only by the shard draining the
// partition, like every other partition field.
type shadowPart struct {
	cache *cache.Cache
	pol   *policy.LSTMPolicy

	hitNs   int64 // HBM access on a hit
	readNs  int64 // SSD read on a miss
	writeNs int64 // SSD write (bypassed write, write-back)
	rtNs    int64 // unloaded link round trip, paid by every request

	ten []shadowTenantStats
}

// newShadowPart builds one partition's shadow cache on the same geometry as
// the live partition. The latency constants come from the partition's own
// hbm/ssd models and link.
func newShadowPart(cfg Config, sb *ShadowBundle, pc cache.Config, nTenants int, mem *hbm.Memory, dev *ssd.Device, link *cxl.Link) (*shadowPart, error) {
	pol := policy.NewLSTMPolicy(policy.LSTMPolicyConfig{
		Net:        sb.Net,
		Normalizer: sb.Norm,
		Transform:  cfg.Transform,
		Threshold:  sb.Threshold,
		Admission:  true,
		Eviction:   true,
	})
	c, err := cache.New(pc, pol)
	if err != nil {
		return nil, fmt.Errorf("serve: shadow cache: %w", err)
	}
	return &shadowPart{
		cache:   c,
		pol:     pol,
		hitNs:   mem.HitLatency(),
		readNs:  dev.ReadPenalty(),
		writeNs: dev.WritePenalty(),
		rtNs:    link.RoundTrip(trace.PageSize, 0),
		ten:     make([]shadowTenantStats, nTenants),
	}, nil
}

// serve runs one request through the shadow cache and accounts its modeled
// latency. Called from drainBatch on the partition's shard goroutine.
func (sp *shadowPart) serve(req Request) {
	res := sp.cache.Access(req.Page, req.Write)
	lat := sp.rtNs
	switch {
	case res.Hit:
		lat += sp.hitNs
	case res.Admitted:
		lat += sp.hitNs
		if !req.Write {
			lat += sp.readNs // miss fill from the SSD
		}
		if res.WriteBack {
			lat += sp.writeNs
		}
	case req.Write:
		lat += sp.writeNs // bypassed write goes straight to the SSD
	default:
		lat += sp.readNs // bypassed read is served from the SSD
	}
	st := &sp.ten[req.Tenant]
	st.ops++
	if res.Hit {
		st.hits++
	}
	st.latSumNs += lat
}

// shadowTenantCell is one shadow accounting cell's persisted form.
type shadowTenantCell struct {
	Ops      uint64 `json:"ops,omitempty"`
	Hits     uint64 `json:"hits,omitempty"`
	LatSumNs int64  `json:"lat_sum_ns,omitempty"`
}

// shadowPartState is one partition's shadow runtime state. The network
// weights are deliberately absent (retrained deterministically at resume);
// everything the traffic mutated — cache contents, the policy's window and
// clock, the accounting cells — is here.
type shadowPartState struct {
	Cache   cache.State            `json:"cache"`
	Policy  policy.LSTMPolicyState `json:"policy"`
	Tenants []shadowTenantCell     `json:"tenants,omitempty"`
}

// exportState captures the shadow partition's mutable state.
func (sp *shadowPart) exportState() shadowPartState {
	st := shadowPartState{
		Cache:   sp.cache.Dump(),
		Policy:  sp.pol.State(),
		Tenants: make([]shadowTenantCell, len(sp.ten)),
	}
	for t, cell := range sp.ten {
		st.Tenants[t] = shadowTenantCell{Ops: cell.ops, Hits: cell.hits, LatSumNs: cell.latSumNs}
	}
	return st
}

// restoreState rewinds the shadow partition to an exported state.
func (sp *shadowPart) restoreState(st shadowPartState) error {
	if err := sp.cache.LoadDump(st.Cache); err != nil {
		return err
	}
	if err := sp.pol.RestoreState(st.Policy); err != nil {
		return err
	}
	if len(st.Tenants) != len(sp.ten) {
		return fmt.Errorf("serve: shadow state has %d tenant cells, spec builds %d", len(st.Tenants), len(sp.ten))
	}
	for t, cs := range st.Tenants {
		sp.ten[t] = shadowTenantStats{ops: cs.Ops, hits: cs.Hits, latSumNs: cs.LatSumNs}
	}
	return nil
}
