package lstm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// referenceForward is the row-at-a-time evaluation the fused cell replaced,
// kept as a test oracle. It reads the network only through Export's
// [][]float64 rows, so it does not depend on the internal weight layout: for
// every gate row r it sums the bias, then wx·x, then wh·h, each with k
// ascending, into pre[r], and only then applies the gate nonlinearities.
func referenceForward(w Weights, seq [][]float64) float64 {
	hidden := w.Config.HiddenDim
	hs := make([][]float64, len(w.Layers))
	cs := make([][]float64, len(w.Layers))
	for li := range hs {
		hs[li] = make([]float64, hidden)
		cs[li] = make([]float64, hidden)
	}
	pre := make([]float64, 4*hidden)
	for _, x := range seq {
		cur := x
		for li, lw := range w.Layers {
			h, c := hs[li], cs[li]
			for r := range pre {
				s := lw.B[r]
				for k, xv := range cur {
					s += lw.Wx[r][k] * xv
				}
				for k, hv := range h {
					s += lw.Wh[r][k] * hv
				}
				pre[r] = s
			}
			next := make([]float64, hidden)
			for j := 0; j < hidden; j++ {
				ig := sigmoid(pre[j])
				fg := sigmoid(pre[hidden+j])
				gg := math.Tanh(pre[2*hidden+j])
				og := sigmoid(pre[3*hidden+j])
				cj := fg*c[j] + ig*gg
				c[j] = cj
				next[j] = og * math.Tanh(cj)
			}
			hs[li] = next
			cur = next
		}
	}
	out := w.By
	for j, wv := range w.Wy {
		out += wv * hs[len(hs)-1][j]
	}
	return out
}

// randomSeqs draws count sequences whose inputs span four magnitudes, the
// largest (±50) deep enough to saturate every gate. The first two are all
// +0 and all −0, the inputs whose products are the easiest to reorder
// without noticing.
func randomSeqs(cfg Config, count int, rng *rand.Rand) [][][]float64 {
	scales := []float64{0.1, 1, 10, 50}
	out := make([][][]float64, count)
	for i := range out {
		scale := scales[i%len(scales)]
		out[i] = seqOf(cfg, func(int) []float64 {
			x := make([]float64, cfg.InputDim)
			for k := range x {
				switch i {
				case 0:
				case 1:
					x[k] = math.Copysign(0, -1)
				default:
					x[k] = (2*rng.Float64() - 1) * scale
				}
			}
			return x
		})
	}
	return out
}

// TestForwardMatchesReference requires the fused cell to reproduce the
// row-at-a-time evaluation bit for bit, on fresh and briefly trained
// networks, at shapes that include an odd hidden size and input dims other
// than 2. One Scratch serves every probe, so Forward must also reset it.
func TestForwardMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8},
		{InputDim: 2, HiddenDim: 8, Layers: 2, SeqLen: 5},
		{InputDim: 1, HiddenDim: 3, Layers: 2, SeqLen: 4},
		{InputDim: 3, HiddenDim: 7, Layers: 3, SeqLen: 6},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.HiddenDim)))
		n, err := New(cfg, int64(cfg.HiddenDim))
		if err != nil {
			t.Fatal(err)
		}
		probes := randomSeqs(cfg, 48, rng)
		s := n.NewScratch()
		for _, stage := range []string{"fresh", "trained"} {
			if stage == "trained" {
				samples := make([]Sample, 16)
				for i, seq := range randomSeqs(cfg, len(samples), rng) {
					samples[i] = Sample{Seq: seq, Target: rng.Float64()}
				}
				if _, err := n.Train(samples, TrainConfig{LearningRate: 1e-2, Epochs: 2, ClipNorm: 5}); err != nil {
					t.Fatal(err)
				}
			}
			w := n.Export()
			for i, seq := range probes {
				got, err := n.Forward(seq, s)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceForward(w, seq); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%+v %s probe %d: Forward %v (%#x), reference %v (%#x)",
						cfg, stage, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// Pinned digests of a fixed-seed training run at the serve shadow's shape
// (2, 16, 1, 8). They were recorded from the row-at-a-time kernel the fused
// cell replaced; any change to an operand order in the forward pass, BPTT,
// clipping or Adam moves them.
const (
	pinnedWeightsSHA = "01a8c29378e469e19a3b79500c3fcf2e4662a75c897dad3ea56e51ff330b7a0c"
	pinnedMSESHA     = "2fd6412b6ec132780339c6e79517f321447f68c90f353496183c1be7e61ccab0"
)

// TestTrainBitsPinned pins the whole training path to the last bit: the
// SHA-256 of a trained network's exported weights and of its per-epoch MSE.
func TestTrainBitsPinned(t *testing.T) {
	cfg := Config{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8}
	n, err := New(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	samples := make([]Sample, 32)
	for i := range samples {
		sum := 0.0
		seq := seqOf(cfg, func(int) []float64 {
			x := rng.NormFloat64() * 3
			sum += x
			return []float64{x, rng.Float64()}
		})
		samples[i] = Sample{Seq: seq, Target: sum / float64(cfg.SeqLen)}
	}
	// A tight clip norm makes clip rescale the gradients, so visit's order
	// is part of the pin.
	res, err := n.Train(samples, TrainConfig{LearningRate: 1e-2, Epochs: 4, ClipNorm: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(n.Export())
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]byte, 8*len(res.EpochMSE))
	for i, v := range res.EpochMSE {
		binary.LittleEndian.PutUint64(bits[8*i:], math.Float64bits(v))
	}
	if got := sha256.Sum256(blob); hex.EncodeToString(got[:]) != pinnedWeightsSHA {
		t.Errorf("trained weights SHA-256 %x, want %s", got, pinnedWeightsSHA)
	}
	if got := sha256.Sum256(bits); hex.EncodeToString(got[:]) != pinnedMSESHA {
		t.Errorf("epoch MSE SHA-256 %x, want %s", got, pinnedMSESHA)
	}
}

// TestForwardAllocs pins inference at zero allocations: the shadow policy
// runs one Forward per miss, and everything it touches lives in the Scratch.
func TestForwardAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8},
		{InputDim: 3, HiddenDim: 7, Layers: 3, SeqLen: 6},
	} {
		n, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq := randomSeqs(cfg, 3, rand.New(rand.NewSource(1)))[2]
		s := n.NewScratch()
		if got := testing.AllocsPerRun(100, func() {
			if _, err := n.Forward(seq, s); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%+v: Forward allocates %v per call, want 0", cfg, got)
		}
	}
}

// TestTrainAllocsIndependentOfSamples requires Train to build its caches,
// gradients and buffers once per call: fitting 4N samples must allocate
// exactly as often as fitting N.
func TestTrainAllocsIndependentOfSamples(t *testing.T) {
	cfg := Config{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8}
	rng := rand.New(rand.NewSource(2))
	samples := make([]Sample, 32)
	for i, seq := range randomSeqs(cfg, len(samples), rng) {
		samples[i] = Sample{Seq: seq, Target: rng.Float64()}
	}
	n, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := n.Train(samples[:count], TrainConfig{LearningRate: 1e-3, Epochs: 2, ClipNorm: 0.5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(8), allocs(32); few != many {
		t.Errorf("Train allocates %v times for 8 samples and %v for 32, want equal", few, many)
	}
}

// BenchmarkForward times one inference at the serve shadow's committed
// shape (2, 16, 1, 8), the per-miss cost scenario-shadow pays.
func BenchmarkForward(b *testing.B) {
	cfg := Config{InputDim: 2, HiddenDim: 16, Layers: 1, SeqLen: 8}
	n, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	seq := seqOf(cfg, func(i int) []float64 { return []float64{float64(i) / 8, 0.5} })
	s := n.NewScratch()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := n.Forward(seq, s); err != nil {
			b.Fatal(err)
		}
	}
}
