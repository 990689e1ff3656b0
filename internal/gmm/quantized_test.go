package gmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestQuantizedParityOnTrainedModel bounds the log-density error the Q16.16
// datapath introduces on a realistically trained model: near the data the
// per-constant 2^-17 representation error stays far below the admission
// threshold's resolution.
// weightWords counts the quantized model's 32-bit weight-buffer words, the
// six constants of every component.
func weightWords(q *QuantizedModel) int {
	return len(q.MeanX) + len(q.MeanY) + len(q.PrecXX) + len(q.PrecXY) + len(q.PrecYY) + len(q.LogCoef)
}

func TestQuantizedParityOnTrainedModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	pts := sampleMixture(2000, rng)
	res, err := Fit(samplesFromPoints(pts), TrainConfig{K: 8, MaxIters: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q, rep := Quantize(res.Model)
	if rep.Saturated != 0 {
		t.Fatalf("trained unit-square model saturated %d constants", rep.Saturated)
	}
	if rep.MaxAbsErr > 0.5/qScale+1e-12 {
		t.Fatalf("MaxAbsErr %v exceeds the round-to-nearest bound %v", rep.MaxAbsErr, 0.5/qScale)
	}
	worst := 0.0
	for _, p := range pts[:500] {
		f := res.Model.LogScore(p)
		qs := q.LogScore(p)
		if d := math.Abs(f - qs); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Errorf("max |log-density delta| on training points = %v, want <= 0.05", worst)
	}
}

// TestQuantizeSaturationTightComponent: a near-degenerate component's
// precision entries exceed the Q16.16 integer range and must be reported, not
// silently clamped.
func TestQuantizeSaturationTightComponent(t *testing.T) {
	t.Parallel()
	m, err := New([]Component{
		{Weight: 1, Mean: linalg.V2(0.5, 0.5), Cov: linalg.SymDiag(1e-6, 1e-6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, rep := Quantize(m)
	// -0.5 * precision = -5e5, far outside [-32768, 32767].
	if rep.Saturated < 2 {
		t.Fatalf("tight component reported %d saturated constants, want >= 2", rep.Saturated)
	}
	if q.PrecXX[0] != math.MinInt32 || q.PrecYY[0] != math.MinInt32 {
		t.Errorf("saturated precisions not clamped to MinInt32: %d, %d", q.PrecXX[0], q.PrecYY[0])
	}
}

// TestQuantizedBatchMatchesScalar pins the quantized batch kernel to the
// per-point path bit for bit, including far-out points where densities
// underflow.
func TestQuantizedBatchMatchesScalar(t *testing.T) {
	t.Parallel()
	m := batchTestModel(t, 17)
	q, rep := Quantize(m)
	if rep.Saturated != 0 {
		t.Fatalf("test model saturated %d constants", rep.Saturated)
	}
	rng := rand.New(rand.NewSource(4))
	n := 197
	pages := make([]float64, n)
	times := make([]float64, n)
	dst := make([]float64, n)
	for i := range pages {
		pages[i] = rng.Float64()*40 - 20
		times[i] = rng.Float64()*40 - 20
	}
	var s Scratch
	q.ScorePageTimeBatchScratch(pages, times, dst, &s)
	for i := range pages {
		if want := q.ScorePageTime(pages[i], times[i]); dst[i] != want {
			t.Fatalf("point %d: batch %v != scalar %v (must be bit-identical)", i, dst[i], want)
		}
	}
}

// TestQuantizedHandAssembledFallback: a QuantizedModel built field by field
// (no Quantize call, so no dequantized bundle) must still score batches,
// through the per-point fallback.
func TestQuantizedHandAssembledFallback(t *testing.T) {
	t.Parallel()
	q := &QuantizedModel{
		MeanX: []int32{toQ(0.5)}, MeanY: []int32{toQ(0.5)},
		PrecXX: []int32{toQ(-0.5 * 10)}, PrecXY: []int32{0}, PrecYY: []int32{toQ(-0.5 * 10)},
		LogCoef: []int32{toQ(-1)},
	}
	pages := []float64{0.5, 0.7, 0.1}
	times := []float64{0.5, 0.2, 0.9}
	dst := make([]float64, 3)
	var s Scratch
	q.ScorePageTimeBatchScratch(pages, times, dst, &s)
	for i := range pages {
		if want := q.ScorePageTime(pages[i], times[i]); dst[i] != want {
			t.Fatalf("point %d: fallback batch %v != scalar %v", i, dst[i], want)
		}
	}
}

// TestQuantizeZeroWeightComponent: a weight-0 component's -Inf log
// coefficient maps to the deliberate floor encoding, not a saturation report,
// and the mixture still scores through its live components.
func TestQuantizeZeroWeightComponent(t *testing.T) {
	t.Parallel()
	m, err := New([]Component{
		{Weight: 0, Mean: linalg.V2(0.2, 0.2), Cov: linalg.SymDiag(0.01, 0.01)},
		{Weight: 1, Mean: linalg.V2(0.8, 0.8), Cov: linalg.SymDiag(0.01, 0.01)},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, rep := Quantize(m)
	if rep.Saturated != 0 {
		t.Fatalf("floor encoding misreported as saturation (%d)", rep.Saturated)
	}
	if q.LogCoef[0] != math.MinInt32 {
		t.Errorf("dead component logCoef = %d, want MinInt32 floor", q.LogCoef[0])
	}
	got := q.LogScore(linalg.V2(0.8, 0.8))
	want := m.LogScore(linalg.V2(0.8, 0.8))
	if math.Abs(got-want) > 0.05 {
		t.Errorf("LogScore with dead component: quantized %v vs float %v", got, want)
	}
}

// TestQuantizedScoreAllocs pins the quantized scoring paths at zero
// allocations: scalar, and the scratch-threaded batch at steady state.
func TestQuantizedScoreAllocs(t *testing.T) {
	m := batchTestModel(t, 32)
	q, _ := Quantize(m)
	rng := rand.New(rand.NewSource(5))
	n := 137
	pages := make([]float64, n)
	times := make([]float64, n)
	dst := make([]float64, n)
	for i := range pages {
		pages[i], times[i] = rng.Float64(), rng.Float64()
	}
	if a := testing.AllocsPerRun(20, func() { q.LogScore(linalg.V2(0.3, 0.4)) }); a != 0 {
		t.Errorf("LogScore allocates %v per run", a)
	}
	var s Scratch
	q.ScorePageTimeBatchScratch(pages, times, dst, &s) // grow the scratch once
	if a := testing.AllocsPerRun(20, func() { q.ScorePageTimeBatchScratch(pages, times, dst, &s) }); a != 0 {
		t.Errorf("ScorePageTimeBatchScratch allocates %v per run at steady state", a)
	}
}

// FuzzQuantizeRoundTrip drives Quantize plus the batch/scalar parity contract
// with arbitrary two-component models.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add(0.6, 0.4, 0.2, 0.3, 0.01, 0.002, 0.02, 0.5, 0.5)
	f.Add(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -3.0, 7.0)
	f.Add(0.5, 0.5, 0.9, -0.9, 1e-5, 0.0, 1e-5, 0.9, 0.9)
	f.Fuzz(func(t *testing.T, w1, w2, mx, my, cxx, cxy, cyy, px, py float64) {
		// Keep inputs in the regime the serving path feeds (normalized
		// coordinates); extreme magnitudes only exercise float overflow, not
		// the quantizer.
		for _, v := range []float64{w1, w2, mx, my, cxx, cxy, cyy, px, py} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		m, err := New([]Component{
			{Weight: math.Abs(w1), Mean: linalg.V2(mx, my), Cov: linalg.Sym2{XX: cxx, XY: cxy, YY: cyy}},
			{Weight: math.Abs(w2), Mean: linalg.V2(-my, mx), Cov: linalg.SymDiag(0.5, 0.25)},
		})
		if err != nil {
			t.Skip() // invalid covariance or all-zero weights: not a model
		}
		q, rep := Quantize(m)
		if rep.Saturated < 0 || rep.MaxAbsErr < 0 {
			t.Fatalf("malformed report %+v", rep)
		}
		if rep.MaxAbsErr > 0.5/qScale+1e-12 {
			t.Fatalf("MaxAbsErr %v exceeds the round-to-nearest bound", rep.MaxAbsErr)
		}
		if got := weightWords(q); got != 2*6 {
			t.Fatalf("weight buffer holds %d words, want %d", got, 2*6)
		}
		scalar := q.ScorePageTime(px, py)
		pages, times, dst := []float64{px}, []float64{py}, []float64{0}
		var s Scratch
		q.ScorePageTimeBatchScratch(pages, times, dst, &s)
		if dst[0] != scalar && !(math.IsNaN(dst[0]) && math.IsNaN(scalar)) {
			t.Fatalf("batch %v != scalar %v", dst[0], scalar)
		}
	})
}
