package lstm

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// trainedNet fits a tiny network on a deterministic synthetic task: the
// target is the mean of the first feature across the sequence, which a
// single-gate path can learn in a few epochs.
func trainedNet(t testing.TB, seed int64) *Network {
	t.Helper()
	n, err := New(tinyConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, 24)
	for i := range samples {
		sum := 0.0
		seq := seqOf(tinyConfig(), func(int) []float64 {
			x := rng.Float64()
			sum += x
			return []float64{x, rng.Float64()}
		})
		samples[i] = Sample{Seq: seq, Target: sum / float64(tinyConfig().SeqLen)}
	}
	if _, err := n.Train(samples, TrainConfig{LearningRate: 1e-2, Epochs: 3, ClipNorm: 5}); err != nil {
		t.Fatal(err)
	}
	return n
}

// probeSeqs returns fixed input sequences for score-parity checks.
func probeSeqs(seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float64, 8)
	for i := range out {
		out[i] = seqOf(tinyConfig(), func(int) []float64 {
			return []float64{rng.Float64(), rng.Float64()}
		})
	}
	return out
}

// TestTrainDeterministic pins the whole train path: two networks built from
// the same seed and fitted on the same samples must export bit-identical
// parameters — the property the serve layer's shadow policy relies on to
// retrain (rather than checkpoint) its weights on resume.
func TestTrainDeterministic(t *testing.T) {
	a, b := trainedNet(t, 7), trainedNet(t, 7)
	if !reflect.DeepEqual(a.Export(), b.Export()) {
		t.Fatal("identical seed + samples produced different trained weights")
	}
	c := trainedNet(t, 8)
	if reflect.DeepEqual(a.Export(), c.Export()) {
		t.Fatal("different seeds produced identical trained weights")
	}
}

// TestWeightsRestoreScoreParity round-trips a trained network through
// Export → JSON → Restore into a freshly (differently) initialized network
// and demands exact score parity on fixed probe sequences. encoding/json
// emits the shortest float64 form that round-trips exactly, so the scores
// must match to the last bit, not to a tolerance.
func TestWeightsRestoreScoreParity(t *testing.T) {
	src := trainedNet(t, 42)
	blob, err := json.Marshal(src.Export())
	if err != nil {
		t.Fatal(err)
	}
	var w Weights
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	dst, err := New(tinyConfig(), 999)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(w); err != nil {
		t.Fatal(err)
	}
	srcS, dstS := src.NewScratch(), dst.NewScratch()
	for i, seq := range probeSeqs(42) {
		want, err := src.Forward(seq, srcS)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Forward(seq, dstS)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("probe %d: restored score %v, want exactly %v", i, got, want)
		}
		if math.IsNaN(got) {
			t.Errorf("probe %d: NaN score", i)
		}
	}
}

// TestWeightsExportIsDeepCopy mutates an exported parameter set and checks
// the source network still scores identically — Export must not alias the
// live weights, or a persisted checkpoint could corrupt a serving policy.
func TestWeightsExportIsDeepCopy(t *testing.T) {
	n := trainedNet(t, 3)
	seq := probeSeqs(3)[0]
	s := n.NewScratch()
	before, err := n.Forward(seq, s)
	if err != nil {
		t.Fatal(err)
	}
	w := n.Export()
	w.Layers[0].Wx[0][0] += 100
	w.Layers[0].Wh[0][0] += 100
	w.Layers[0].B[0] += 100
	w.Wy[0] += 100
	after, err := n.Forward(seq, s)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("mutating exported weights changed the live network: %v -> %v", before, after)
	}
}

// TestWeightsRestoreShapeErrors rejects every malformed parameter set.
func TestWeightsRestoreShapeErrors(t *testing.T) {
	n, err := New(tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	good := n.Export()
	mutate := []struct {
		name string
		fn   func(w *Weights)
	}{
		{"config mismatch", func(w *Weights) { w.Config.HiddenDim++ }},
		{"layer count", func(w *Weights) { w.Layers = w.Layers[:1] }},
		{"head length", func(w *Weights) { w.Wy = w.Wy[:3] }},
		{"wx rows", func(w *Weights) { w.Layers[0].Wx = w.Layers[0].Wx[:5] }},
		{"wx cols", func(w *Weights) { w.Layers[1].Wx[2] = w.Layers[1].Wx[2][:1] }},
		{"wh rows", func(w *Weights) { w.Layers[0].Wh = w.Layers[0].Wh[:5] }},
		{"wh cols", func(w *Weights) { w.Layers[0].Wh[0] = nil }},
		{"bias length", func(w *Weights) { w.Layers[1].B = w.Layers[1].B[:2] }},
	}
	for _, m := range mutate {
		// Re-export for a fresh deep copy each round so one mutation cannot
		// leak into the next case.
		w := n.Export()
		m.fn(&w)
		if err := n.Restore(w); err == nil {
			t.Errorf("%s: malformed weights accepted", m.name)
		}
	}
	if err := n.Restore(good); err != nil {
		t.Errorf("restoring a clean export failed: %v", err)
	}
}
