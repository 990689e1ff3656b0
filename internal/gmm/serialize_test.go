package gmm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := Fit(samplesFromPoints(sampleMixture(1000, rng)), TrainConfig{K: 4, MaxIters: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	norm := trace.Normalizer{PageOffset: 100, PageScale: 0.001, TimeOffset: 5, TimeScale: 0.01}
	var buf bytes.Buffer
	if err := Save(&buf, res.Model, norm); err != nil {
		t.Fatal(err)
	}
	m2, norm2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if norm2 != norm {
		t.Errorf("normalizer round trip: %+v != %+v", norm2, norm)
	}
	if m2.K() != res.Model.K() {
		t.Fatalf("K mismatch")
	}
	// Scores must agree at several probe points.
	for _, x := range []linalg.Vec2{{X: 0.2, Y: 0.3}, {X: 0.8, Y: 0.7}, {X: 0.5, Y: 0.5}} {
		a, b := res.Model.LogScore(x), m2.LogScore(x)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("LogScore(%v) = %v vs %v after round trip", x, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Load(strings.NewReader(`{"format":"other","k":1}`)); err == nil {
		t.Error("unknown format accepted")
	}
	if _, _, err := Load(strings.NewReader(`{"format":"icgmm-gmm-v1","k":0,"components":[]}`)); err == nil {
		t.Error("empty component list accepted")
	}
}

func TestSaveRejectsInvalidModel(t *testing.T) {
	m := &Model{Components: []Component{{Weight: 2, Cov: linalg.SymDiag(-1, -1)}}}
	var buf bytes.Buffer
	if err := Save(&buf, m, trace.Normalizer{}); err == nil {
		t.Error("invalid model saved without error")
	}
}

func TestLoadDefaultsZeroScales(t *testing.T) {
	in := `{"format":"icgmm-gmm-v1","k":1,
		"components":[{"weight":1,"mean":[0,0],"cov":[1,0,1]}],
		"normalizer":{"page_offset":0,"page_scale":0,"time_offset":0,"time_scale":0}}`
	_, norm, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if norm.PageScale != 1 || norm.TimeScale != 1 {
		t.Errorf("zero scales not defaulted: %+v", norm)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	m, err := New([]Component{
		{Weight: 0.6, Mean: linalg.V2(0.2, 0.3), Cov: linalg.SymDiag(0.01, 0.02)},
		{Weight: 0.4, Mean: linalg.V2(0.8, 0.7), Cov: linalg.Sym2{XX: 0.02, XY: 0.005, YY: 0.01}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, rep := Quantize(m)
	if q.K() != 2 {
		t.Fatalf("K = %d", q.K())
	}
	if rep.Saturated != 0 {
		t.Fatalf("moderate model saturated %d constants", rep.Saturated)
	}
	// Quantized scores should track float scores closely near the data.
	for _, x := range []linalg.Vec2{{X: 0.2, Y: 0.3}, {X: 0.8, Y: 0.7}, {X: 0.5, Y: 0.5}} {
		f := m.LogScore(x)
		qs := q.LogScore(x)
		if math.Abs(f-qs) > 0.05*math.Abs(f)+0.05 {
			t.Errorf("LogScore(%v): float %v vs quantized %v", x, f, qs)
		}
	}
	// Ranking must be preserved: in-cluster beats out-of-cluster.
	if q.Score(linalg.V2(0.2, 0.3)) <= q.Score(linalg.V2(0.5, 0.0)) {
		t.Error("quantized ranking inverted")
	}
}

func TestQuantizedWeightBufferSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res, err := Fit(samplesFromPoints(sampleMixture(2000, rng)), TrainConfig{K: 16, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Quantize(res.Model)
	if got := weightWords(q); got != 16*6 {
		t.Errorf("weight buffer holds %d words, want %d", got, 16*6)
	}
}

func TestToQSaturation(t *testing.T) {
	if toQ(1e10) != math.MaxInt32 {
		t.Error("positive overflow not saturated")
	}
	if toQ(-1e10) != math.MinInt32 {
		t.Error("negative overflow not saturated")
	}
	if got := fromQ(toQ(1.5)); got != 1.5 {
		t.Errorf("round trip 1.5 = %v", got)
	}
}
