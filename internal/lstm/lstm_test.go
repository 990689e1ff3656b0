package lstm

import (
	"math"
	"math/rand"
	"testing"
)

// tinyConfig keeps tests fast.
func tinyConfig() Config {
	return Config{InputDim: 2, HiddenDim: 8, Layers: 2, SeqLen: 5}
}

func TestConfigValidate(t *testing.T) {
	if err := PaperBaseline().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{},
		{InputDim: 1, HiddenDim: 0, Layers: 1, SeqLen: 1},
		{InputDim: 1, HiddenDim: 1, Layers: 1, SeqLen: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}, 1); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestParamCount(t *testing.T) {
	// 1 layer, in=2, h=4: 4*4*(2+4+1) = 112, head 4+1 = 5 → 117.
	c := Config{InputDim: 2, HiddenDim: 4, Layers: 1, SeqLen: 3}
	if got := c.ParamCount(); got != 117 {
		t.Errorf("ParamCount = %d, want 117", got)
	}
	// Paper baseline: layer1 4*128*(2+128+1), layers 2-3 4*128*(128+128+1).
	pb := PaperBaseline()
	want := 4*128*(2+128+1) + 2*4*128*(128+128+1) + 128 + 1
	if got := pb.ParamCount(); got != want {
		t.Errorf("paper ParamCount = %d, want %d", got, want)
	}
}

func TestMACsPerInference(t *testing.T) {
	c := Config{InputDim: 2, HiddenDim: 4, Layers: 1, SeqLen: 3}
	// per step: 4*4*(2+4) = 96; 3 steps = 288; head 4 → 292.
	if got := c.MACsPerInference(); got != 292 {
		t.Errorf("MACs = %d, want 292", got)
	}
	// The paper baseline runs ~10.8M MACs, which at ~1 MAC/cycle on the
	// FPGA explains the 46.3 ms Table 2 latency.
	pb := PaperBaseline()
	if got := pb.MACsPerInference(); got < 10_000_000 || got > 12_000_000 {
		t.Errorf("paper MACs = %d, want ~10.8M", got)
	}
}

func seqOf(cfg Config, f func(t int) []float64) [][]float64 {
	seq := make([][]float64, cfg.SeqLen)
	for i := range seq {
		seq[i] = f(i)
	}
	return seq
}

func TestForwardShapeErrors(t *testing.T) {
	n, err := New(tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := n.NewScratch()
	if _, err := n.Forward(nil, s); err == nil {
		t.Error("wrong sequence length accepted")
	}
	seq := seqOf(tinyConfig(), func(int) []float64 { return []float64{1} })
	if _, err := n.Forward(seq, s); err == nil {
		t.Error("wrong input dim accepted")
	}
	// A scratch built for any other shape is refused, not indexed.
	good := seqOf(tinyConfig(), func(int) []float64 { return []float64{1, 2} })
	for _, cfg := range []Config{
		{InputDim: 2, HiddenDim: 4, Layers: 2, SeqLen: 5},
		{InputDim: 2, HiddenDim: 8, Layers: 3, SeqLen: 5},
		{InputDim: 2, HiddenDim: 8, Layers: 2, SeqLen: 6},
	} {
		other, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Forward(good, other.NewScratch()); err == nil {
			t.Errorf("scratch shaped %+v accepted by a %+v network", cfg, tinyConfig())
		}
	}
	if _, err := n.Forward(good, s); err != nil {
		t.Errorf("well-shaped call after refusals: %v", err)
	}
}

func TestForwardDeterministic(t *testing.T) {
	cfg := tinyConfig()
	n1, _ := New(cfg, 7)
	n2, _ := New(cfg, 7)
	seq := seqOf(cfg, func(i int) []float64 { return []float64{float64(i), 0.5} })
	a, err := n1.Forward(seq, n1.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := n2.Forward(seq, n2.NewScratch())
	if a != b {
		t.Errorf("same seed gave different outputs: %v vs %v", a, b)
	}
	n3, _ := New(cfg, 8)
	c, _ := n3.Forward(seq, n3.NewScratch())
	if a == c {
		t.Error("different seeds gave identical outputs")
	}
}

func TestForwardBoundedActivations(t *testing.T) {
	cfg := tinyConfig()
	n, _ := New(cfg, 3)
	s := n.NewScratch()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		seq := seqOf(cfg, func(int) []float64 {
			return []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		})
		y, err := n.Forward(seq, s)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("non-finite output %v", y)
		}
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network validates the BPTT
	// implementation end to end.
	cfg := Config{InputDim: 2, HiddenDim: 3, Layers: 2, SeqLen: 4}
	n, _ := New(cfg, 11)
	seq := seqOf(cfg, func(i int) []float64 { return []float64{0.3 * float64(i), -0.2} })
	target := 0.7

	ts := n.newTrainScratch()
	n.backward(seq, target, ts)
	g := ts.g

	s := n.NewScratch()
	loss := func() float64 {
		p, _ := n.Forward(seq, s)
		return 0.5 * (p - target) * (p - target)
	}
	const h = 1e-6
	check := func(p *float64, analytic float64, name string) {
		orig := *p
		*p = orig + h
		lp := loss()
		*p = orig - h
		lm := loss()
		*p = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("%s: numeric %v vs analytic %v", name, numeric, analytic)
		}
	}
	// Spot-check representative parameters from every group. Weights are
	// flat row-major: row r, column k of layer 0's wx (inDim 2) is r*2+k;
	// every wh, and layer 1's wx, has hidden (3) columns.
	check(&n.wy[0], g.wy[0], "wy[0]")
	check(&n.by, g.by, "by")
	check(&n.layers[0].wx[0*2+0], g.wx[0][0*2+0], "l0.wx[0][0]")
	check(&n.layers[0].wh[5*3+1], g.wh[0][5*3+1], "l0.wh[5][1]")
	check(&n.layers[0].b[2], g.b[0][2], "l0.b[2]")
	check(&n.layers[1].wx[1*3+2], g.wx[1][1*3+2], "l1.wx[1][2]")
	check(&n.layers[1].wh[10*3+0], g.wh[1][10*3+0], "l1.wh[10][0]")
	check(&n.layers[1].b[7], g.b[1][7], "l1.b[7]")
}

func TestTrainReducesLoss(t *testing.T) {
	// A tiny LSTM must be able to learn a simple function: target is the
	// mean of the first input channel.
	cfg := Config{InputDim: 2, HiddenDim: 8, Layers: 1, SeqLen: 6}
	n, _ := New(cfg, 5)
	rng := rand.New(rand.NewSource(6))
	var samples []Sample
	for i := 0; i < 60; i++ {
		sum := 0.0
		seq := seqOf(cfg, func(int) []float64 {
			v := rng.Float64()
			sum += v
			return []float64{v, rng.Float64()}
		})
		samples = append(samples, Sample{Seq: seq, Target: sum / float64(cfg.SeqLen)})
	}
	res, err := n.Train(samples, TrainConfig{LearningRate: 5e-3, Epochs: 30, ClipNorm: 5})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochMSE[0], res.EpochMSE[len(res.EpochMSE)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	if last > 0.05 {
		t.Errorf("final MSE %v too high for a learnable target", last)
	}
}

func TestTrainValidation(t *testing.T) {
	n, _ := New(tinyConfig(), 1)
	if _, err := n.Train(nil, DefaultTrainConfig()); err == nil {
		t.Error("empty samples accepted")
	}
	bad := []Sample{{Seq: [][]float64{{1, 2}}, Target: 0}} // wrong length
	if _, err := n.Train(bad, DefaultTrainConfig()); err == nil {
		t.Error("wrong-length sample accepted")
	}
	// The cell would truncate a wider row and panic on a narrower one;
	// Train refuses both up front.
	for _, dim := range []int{1, 3} {
		wide := []Sample{{
			Seq:    seqOf(tinyConfig(), func(int) []float64 { return make([]float64, dim) }),
			Target: 0,
		}}
		if _, err := n.Train(wide, DefaultTrainConfig()); err == nil {
			t.Errorf("sample rows of input dim %d accepted", dim)
		}
	}
	good := []Sample{{
		Seq:    seqOf(tinyConfig(), func(int) []float64 { return []float64{0, 0} }),
		Target: 0,
	}}
	if _, err := n.Train(good, TrainConfig{LearningRate: 0, Epochs: 1}); err == nil {
		t.Error("zero learning rate accepted")
	}
}

func TestClipNorm(t *testing.T) {
	cfg := Config{InputDim: 1, HiddenDim: 2, Layers: 1, SeqLen: 2}
	n, _ := New(cfg, 1)
	g := newGrads(n)
	g.wy[0] = 30
	g.wy[1] = 40 // norm 50
	clip(g, 5)
	norm := math.Hypot(g.wy[0], g.wy[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("clipped norm = %v, want 5", norm)
	}
	// Below the threshold: unchanged.
	g2 := newGrads(n)
	g2.wy[0] = 1
	clip(g2, 5)
	if g2.wy[0] != 1 {
		t.Error("clip modified small gradient")
	}
}
