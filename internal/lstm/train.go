package lstm

import (
	"errors"
	"fmt"
	"math"
)

// grads mirrors the parameter layout of the network: per layer, flat wx,
// wh and b slices laid out like the layer's own.
type grads struct {
	wx, wh, b [][]float64 // per layer
	wy        []float64
	by        float64
}

func newGrads(n *Network) *grads {
	g := &grads{wy: make([]float64, len(n.wy))}
	for _, l := range n.layers {
		g.wx = append(g.wx, make([]float64, len(l.wx)))
		g.wh = append(g.wh, make([]float64, len(l.wh)))
		g.b = append(g.b, make([]float64, len(l.b)))
	}
	return g
}

// zero resets every gradient to +0.
func (g *grads) zero() {
	for li := range g.wx {
		clear(g.wx[li])
		clear(g.wh[li])
		clear(g.b[li])
	}
	clear(g.wy)
	g.by = 0
}

// trainScratch is everything one Train call builds once and reuses for
// every sample: the per-layer, per-step activation caches, the cell states
// they advance, one gradient set, and backward's buffers.
type trainScratch struct {
	caches [][]stepCache // [layer][timestep]
	c      [][]float64   // per layer cell state, updated in place
	h0     []float64     // the hidden state before t = 0; never written
	g      *grads

	dpre   []float64 // [4*hidden]
	dx     []float64 // [max(InputDim, hidden)], sliced per layer
	dhPrev []float64 // [hidden]
	dh, dc [][]float64
}

func (n *Network) newTrainScratch() *trainScratch {
	H, L := n.cfg.HiddenDim, len(n.layers)
	ts := &trainScratch{
		caches: make([][]stepCache, L),
		h0:     make([]float64, H),
		g:      newGrads(n),
		dpre:   make([]float64, 4*H),
		dx:     make([]float64, max(n.cfg.InputDim, H)),
		dhPrev: make([]float64, H),
	}
	for li := range ts.caches {
		ts.caches[li] = make([]stepCache, n.cfg.SeqLen)
		for t := range ts.caches[li] {
			ts.caches[li][t] = stepCache{
				h: make([]float64, H),
				i: make([]float64, H), f: make([]float64, H),
				g: make([]float64, H), o: make([]float64, H),
				cPrev: make([]float64, H),
				tanhC: make([]float64, H),
			}
		}
		ts.c = append(ts.c, make([]float64, H))
		ts.dh = append(ts.dh, make([]float64, H))
		ts.dc = append(ts.dc, make([]float64, H))
	}
	return ts
}

// forwardTraining runs the sequence through the same cell kernel as Forward,
// recording every activation in ts.caches, and returns the prediction.
func (n *Network) forwardTraining(seq [][]float64, ts *trainScratch) float64 {
	for li := range ts.c {
		clear(ts.c[li])
	}
	for t, x := range seq {
		cur := x
		for li, l := range n.layers {
			rec := &ts.caches[li][t]
			hPrev := ts.h0
			if t > 0 {
				hPrev = ts.caches[li][t-1].h
			}
			l.cell(cur, hPrev, rec.h, ts.c[li], rec)
			cur = rec.h
		}
	}
	return n.head(ts.caches[len(n.layers)-1][len(seq)-1].h)
}

// backward accumulates gradients of 0.5*(pred-target)^2 into ts.g and
// returns the squared error.
func (n *Network) backward(seq [][]float64, target float64, ts *trainScratch) float64 {
	pred := n.forwardTraining(seq, ts)
	diff := pred - target
	g := ts.g

	h := n.cfg.HiddenDim
	T := len(seq)
	L := len(n.layers)

	// dh[li] is the gradient flowing into layer li's hidden state at the
	// current timestep; dc likewise for the cell state.
	dh, dc := ts.dh, ts.dc
	for li := range dh {
		clear(dh[li])
		clear(dc[li])
	}

	// Head gradients feed the top layer at the last step.
	top := ts.caches[L-1][T-1].h
	for j := 0; j < h; j++ {
		g.wy[j] += diff * top[j]
		dh[L-1][j] += diff * n.wy[j]
	}
	g.by += diff

	dpre, dhPrev := ts.dpre, ts.dhPrev
	for t := T - 1; t >= 0; t-- {
		for li := L - 1; li >= 0; li-- {
			l := n.layers[li]
			c := &ts.caches[li][t]
			dhl, dcl := dh[li], dc[li]
			// Through h = o * tanh(c).
			for j := 0; j < h; j++ {
				do := dhl[j] * c.tanhC[j]
				dcj := dcl[j] + dhl[j]*c.o[j]*(1-c.tanhC[j]*c.tanhC[j])
				di := dcj * c.g[j]
				dg := dcj * c.i[j]
				df := dcj * c.cPrev[j]
				dcPrev := dcj * c.f[j]

				dpre[j] = di * c.i[j] * (1 - c.i[j])
				dpre[h+j] = df * c.f[j] * (1 - c.f[j])
				dpre[2*h+j] = dg * (1 - c.g[j]*c.g[j])
				dpre[3*h+j] = do * c.o[j] * (1 - c.o[j])
				dcl[j] = dcPrev
			}
			// Parameter gradients and propagation to x and hPrev.
			in := l.inDim
			dx := ts.dx[:in]
			clear(dx)
			clear(dhPrev)
			gwx, gwh, gb := g.wx[li], g.wh[li], g.b[li]
			for r := 0; r < 4*h; r++ {
				dp := dpre[r]
				if dp == 0 {
					continue
				}
				wxr, whr := l.wx[r*in:][:in], l.wh[r*h:][:h]
				gx, gh := gwx[r*in:][:in], gwh[r*h:][:h]
				for j := 0; j < in; j++ {
					gx[j] += dp * c.x[j]
					dx[j] += dp * wxr[j]
				}
				for j := 0; j < h; j++ {
					gh[j] += dp * c.hPrev[j]
					dhPrev[j] += dp * whr[j]
				}
				gb[r] += dp
			}
			// Hidden gradient for the previous timestep of this layer.
			copy(dh[li], dhPrev)
			// Input gradient feeds the layer below at the same timestep.
			if li > 0 {
				below := dh[li-1]
				for j := 0; j < h; j++ {
					below[j] += dx[j]
				}
			}
		}
	}
	return diff * diff
}

// adamState holds first/second moment estimates matching grads.
type adamState struct {
	m, v *grads
	t    int
}

// TrainConfig controls SGD.
type TrainConfig struct {
	LearningRate float64
	Epochs       int
	ClipNorm     float64
}

// DefaultTrainConfig returns a reasonable Adam setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{LearningRate: 1e-3, Epochs: 10, ClipNorm: 5}
}

// Sample is one training example: an input sequence and a target frequency.
type Sample struct {
	Seq    [][]float64
	Target float64
}

// TrainResult reports per-epoch mean squared error.
type TrainResult struct {
	EpochMSE []float64
}

// Train fits the network with Adam on the given samples. It is honest
// work — a 3x128 network on thousands of length-32 sequences takes real
// time, which is exactly the software-overhead point the paper makes. Its
// caches, gradients and buffers are built once per call, so its
// allocations do not grow with the number of samples.
func (n *Network) Train(samples []Sample, cfg TrainConfig) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, errors.New("lstm: no training samples")
	}
	if cfg.LearningRate <= 0 || cfg.Epochs <= 0 {
		return nil, errors.New("lstm: invalid training config")
	}
	for i, s := range samples {
		if len(s.Seq) != n.cfg.SeqLen {
			return nil, fmt.Errorf("lstm: sample %d has length %d, want %d", i, len(s.Seq), n.cfg.SeqLen)
		}
		for t, x := range s.Seq {
			if len(x) != n.cfg.InputDim {
				return nil, fmt.Errorf("lstm: sample %d step %d has input dim %d, want %d", i, t, len(x), n.cfg.InputDim)
			}
		}
	}
	ad := &adamState{m: newGrads(n), v: newGrads(n)}
	ts := n.newTrainScratch()
	res := &TrainResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sse := 0.0
		for _, s := range samples {
			ts.g.zero()
			sse += n.backward(s.Seq, s.Target, ts)
			clip(ts.g, cfg.ClipNorm)
			ad.t++
			n.applyAdam(ts.g, ad, cfg.LearningRate)
		}
		res.EpochMSE = append(res.EpochMSE, sse/float64(len(samples)))
	}
	return res, nil
}

func clip(g *grads, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var sq float64
	visit(g, func(v *float64) { sq += *v * *v })
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	visit(g, func(v *float64) { *v *= scale })
}

// visit walks every gradient scalar: each layer's wx, wh and b in index
// order, then wy, then by. clip sums the norm in this order.
func visit(g *grads, f func(*float64)) {
	for li := range g.wx {
		for i := range g.wx[li] {
			f(&g.wx[li][i])
		}
		for i := range g.wh[li] {
			f(&g.wh[li][i])
		}
		for i := range g.b[li] {
			f(&g.b[li][i])
		}
	}
	for j := range g.wy {
		f(&g.wy[j])
	}
	f(&g.by)
}

const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

func (n *Network) applyAdam(g *grads, ad *adamState, lr float64) {
	bc1 := 1 - math.Pow(beta1, float64(ad.t))
	bc2 := 1 - math.Pow(beta2, float64(ad.t))
	step := func(p, gv, m, v *float64) {
		*m = beta1**m + (1-beta1)**gv
		*v = beta2**v + (1-beta2)**gv**gv
		mh := *m / bc1
		vh := *v / bc2
		*p -= lr * mh / (math.Sqrt(vh) + eps)
	}
	for li, l := range n.layers {
		for i := range l.wx {
			step(&l.wx[i], &g.wx[li][i], &ad.m.wx[li][i], &ad.v.wx[li][i])
		}
		for i := range l.wh {
			step(&l.wh[i], &g.wh[li][i], &ad.m.wh[li][i], &ad.v.wh[li][i])
		}
		for i := range l.b {
			step(&l.b[i], &g.b[li][i], &ad.m.b[li][i], &ad.v.b[li][i])
		}
	}
	for j := range n.wy {
		step(&n.wy[j], &g.wy[j], &ad.m.wy[j], &ad.v.wy[j])
	}
	step(&n.by, &g.by, &ad.m.by, &ad.v.by)
}
