// Package lstm implements the LSTM-based cache policy engine the paper
// compares against in Table 2 (the DeepCache/Glider family): a stacked
// 3-layer LSTM with hidden dimension 128 consuming sequences of 32
// (page, timestamp) inputs and regressing the future access frequency.
//
// It is a complete implementation — forward pass, backpropagation through
// time, Adam optimizer — not a cost stub: the Table 2 latency and resource
// ratios are derived from the same per-layer arithmetic this code performs,
// and the paper's observation that a lightweight LSTM struggles to converge
// on long traces can be reproduced by training it.
package lstm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Config shapes the network. The paper's baseline uses 3 layers, hidden
// dimension 128 and input sequence length 32.
type Config struct {
	InputDim  int
	HiddenDim int
	Layers    int
	SeqLen    int
}

// PaperBaseline returns the Table 2 comparison network.
func PaperBaseline() Config {
	return Config{InputDim: 2, HiddenDim: 128, Layers: 3, SeqLen: 32}
}

// Validate checks the shape.
func (c Config) Validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.Layers <= 0 || c.SeqLen <= 0 {
		return errors.New("lstm: non-positive dimension")
	}
	return nil
}

// ParamCount returns the number of trainable parameters: per layer the
// four gates' input and recurrent weights plus biases, and the final
// regression head.
func (c Config) ParamCount() int {
	total := 0
	in := c.InputDim
	for l := 0; l < c.Layers; l++ {
		total += 4 * c.HiddenDim * (in + c.HiddenDim + 1)
		in = c.HiddenDim
	}
	total += c.HiddenDim + 1 // linear head
	return total
}

// MACsPerInference returns the multiply-accumulate count of one full
// sequence inference, the quantity behind the Table 2 latency model.
func (c Config) MACsPerInference() int {
	perStep := 0
	in := c.InputDim
	for l := 0; l < c.Layers; l++ {
		perStep += 4 * c.HiddenDim * (in + c.HiddenDim)
		in = c.HiddenDim
	}
	return c.SeqLen*perStep + c.HiddenDim
}

// layer holds one LSTM layer's parameters. Gates are ordered i, f, g, o.
// Weights are flat and row-major: row r = gate*hidden + j produces hidden
// unit j of that gate, at wx[r*inDim:(r+1)*inDim] and
// wh[r*hidden:(r+1)*hidden], with bias b[r].
type layer struct {
	inDim, hidden int
	// wx: [4*hidden*inDim], wh: [4*hidden*hidden], b: [4*hidden]
	wx, wh, b []float64
}

func newLayer(inDim, hidden int, rng *rand.Rand) *layer {
	l := &layer{inDim: inDim, hidden: hidden}
	scale := 1 / math.Sqrt(float64(inDim+hidden))
	l.wx = randVec(4*hidden*inDim, scale, rng)
	l.wh = randVec(4*hidden*hidden, scale, rng)
	l.b = make([]float64, 4*hidden)
	// Forget-gate bias starts at 1, the standard trick for gradient flow.
	for j := 0; j < hidden; j++ {
		l.b[hidden+j] = 1
	}
	return l
}

// randVec draws n weights from N(0, scale²) in index order.
func randVec(n int, scale float64, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}

// Network is the stacked LSTM with a linear regression head.
type Network struct {
	cfg    Config
	layers []*layer
	// Head: y = wy . h + by.
	wy []float64
	by float64
}

// New builds a network with Xavier-style initialization.
func New(cfg Config, seed int64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{cfg: cfg}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		n.layers = append(n.layers, newLayer(in, cfg.HiddenDim, rng))
		in = cfg.HiddenDim
	}
	n.wy = randVec(cfg.HiddenDim, 1/math.Sqrt(float64(cfg.HiddenDim)), rng)
	return n, nil
}

// Config returns the network shape.
func (n *Network) Config() Config { return n.cfg }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// stepCache records one layer's activations at one timestep for BPTT. x and
// hPrev alias the cell's inputs; the other slices are owned, hidden-length
// buffers.
type stepCache struct {
	x, hPrev   []float64
	h          []float64 // the cell's output: the next step's hPrev, the next layer's x
	i, f, g, o []float64 // gate activations
	cPrev      []float64
	tanhC      []float64
}

// cell advances the layer one timestep. It reads the input x and the
// previous hidden state hPrev, writes the new hidden state into h (a buffer
// distinct from hPrev, since every unit reads all of hPrev) and updates the
// cell state c in place. Hidden unit j accumulates its four gate rows j,
// H+j, 2H+j and 3H+j as four independent chains, each in the order bias,
// then wx·x, then wh·hPrev, with k ascending, so every sum keeps the bits of
// a row-at-a-time evaluation. A non-nil rec records what BPTT needs.
func (l *layer) cell(x, hPrev, h, c []float64, rec *stepCache) {
	H, in := l.hidden, l.inDim
	x, hPrev, h, c = x[:in], hPrev[:H], h[:H], c[:H]
	if rec != nil {
		rec.x, rec.hPrev = x, hPrev
	}
	for j := 0; j < H; j++ {
		ri, rf, rg, ro := j, H+j, 2*H+j, 3*H+j
		si, sf, sg, so := l.b[ri], l.b[rf], l.b[rg], l.b[ro]
		xi, xf, xg, xo := l.wx[ri*in:][:in], l.wx[rf*in:][:in], l.wx[rg*in:][:in], l.wx[ro*in:][:in]
		for k, v := range x {
			si += xi[k] * v
			sf += xf[k] * v
			sg += xg[k] * v
			so += xo[k] * v
		}
		hi, hf, hg, ho := l.wh[ri*H:][:H], l.wh[rf*H:][:H], l.wh[rg*H:][:H], l.wh[ro*H:][:H]
		for k, v := range hPrev {
			si += hi[k] * v
			sf += hf[k] * v
			sg += hg[k] * v
			so += ho[k] * v
		}
		ig, fg, gg, og := sigmoid(si), sigmoid(sf), math.Tanh(sg), sigmoid(so)
		cPrev := c[j]
		cj := fg*cPrev + ig*gg
		tc := math.Tanh(cj)
		c[j], h[j] = cj, og*tc
		if rec != nil {
			rec.i[j], rec.f[j], rec.g[j], rec.o[j] = ig, fg, gg, og
			rec.cPrev[j], rec.tanhC[j] = cPrev, tc
		}
	}
}

// head applies the linear regression head to the top layer's hidden state.
func (n *Network) head(top []float64) float64 {
	out := n.by
	for j, w := range n.wy {
		out += w * top[j]
	}
	return out
}

// Scratch is one caller's inference state: per layer, the hidden and cell
// vectors and the buffer the cell writes the next hidden state into.
// Forward resets it on every call, so a caller builds one and keeps it. A
// Scratch serves one goroutine at a time; the Network it runs is only read,
// so callers that each own a Scratch may share the Network.
type Scratch struct {
	cfg        Config
	h, next, c [][]float64
}

// NewScratch returns an inference scratch shaped for n.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{cfg: n.cfg}
	for range n.layers {
		s.h = append(s.h, make([]float64, n.cfg.HiddenDim))
		s.next = append(s.next, make([]float64, n.cfg.HiddenDim))
		s.c = append(s.c, make([]float64, n.cfg.HiddenDim))
	}
	return s
}

// Forward runs a full sequence and returns the scalar prediction. seq must
// have length cfg.SeqLen, each element length cfg.InputDim, and s must come
// from NewScratch on a network of the same shape. Forward allocates nothing.
func (n *Network) Forward(seq [][]float64, s *Scratch) (float64, error) {
	if s.cfg != n.cfg {
		return 0, fmt.Errorf("lstm: scratch shaped %+v, network shaped %+v", s.cfg, n.cfg)
	}
	if len(seq) != n.cfg.SeqLen {
		return 0, fmt.Errorf("lstm: sequence length %d, want %d", len(seq), n.cfg.SeqLen)
	}
	for li := range s.h {
		clear(s.h[li])
		clear(s.c[li])
	}
	for _, x := range seq {
		if len(x) != n.cfg.InputDim {
			return 0, fmt.Errorf("lstm: input dim %d, want %d", len(x), n.cfg.InputDim)
		}
		cur := x
		for li, l := range n.layers {
			l.cell(cur, s.h[li], s.next[li], s.c[li], nil)
			s.h[li], s.next[li] = s.next[li], s.h[li]
			cur = s.h[li]
		}
	}
	return n.head(s.h[len(s.h)-1]), nil
}
