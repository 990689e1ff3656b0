package gmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// twoBlobModel builds a simple well-separated two-component mixture.
func twoBlobModel(t *testing.T) *Model {
	t.Helper()
	m, err := New([]Component{
		{Weight: 0.5, Mean: linalg.V2(0, 0), Cov: linalg.SymDiag(1, 1)},
		{Weight: 0.5, Mean: linalg.V2(10, 10), Cov: linalg.SymDiag(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty component list accepted")
	}
	if _, err := New([]Component{{Weight: -1, Cov: linalg.SymDiag(1, 1)}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New([]Component{{Weight: 0}}); err == nil {
		t.Error("zero total weight accepted")
	}
	if _, err := New([]Component{{Weight: 1, Cov: linalg.SymDiag(-1, 1)}}); err == nil {
		t.Error("non-PD covariance accepted")
	}
}

func TestNewRenormalizesWeights(t *testing.T) {
	m, err := New([]Component{
		{Weight: 2, Mean: linalg.V2(0, 0), Cov: linalg.SymDiag(1, 1)},
		{Weight: 6, Mean: linalg.V2(5, 5), Cov: linalg.SymDiag(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Components[0].Weight-0.25) > 1e-12 {
		t.Errorf("weight 0 = %v, want 0.25", m.Components[0].Weight)
	}
	if sum := m.Components[0].Weight + m.Components[1].Weight; math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
}

func TestScoreSingleGaussian(t *testing.T) {
	m, err := New([]Component{
		{Weight: 1, Mean: linalg.V2(0, 0), Cov: linalg.SymDiag(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Standard bivariate normal at origin: 1/(2*pi).
	want := 1 / (2 * math.Pi)
	if got := m.Score(linalg.V2(0, 0)); math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(0,0) = %v, want %v", got, want)
	}
	// At distance r the density is (1/2pi) exp(-r^2/2).
	want1 := want * math.Exp(-0.5)
	if got := m.Score(linalg.V2(1, 0)); math.Abs(got-want1) > 1e-12 {
		t.Errorf("Score(1,0) = %v, want %v", got, want1)
	}
}

func TestScoreHigherNearMass(t *testing.T) {
	m := twoBlobModel(t)
	near := m.Score(linalg.V2(0.1, -0.1))
	far := m.Score(linalg.V2(5, 5))
	if near <= far {
		t.Errorf("score near blob %v <= score at saddle %v", near, far)
	}
	if m.ScorePageTime(10, 10) <= far {
		t.Error("ScorePageTime disagrees with Score")
	}
}

func TestLogScoreUnderflowSafe(t *testing.T) {
	m := twoBlobModel(t)
	// Far enough that exp underflows but log-domain stays finite.
	ls := m.LogScore(linalg.V2(1e4, 1e4))
	if math.IsInf(ls, 0) || math.IsNaN(ls) {
		t.Errorf("LogScore far away = %v, want finite", ls)
	}
	if s := m.Score(linalg.V2(1e4, 1e4)); s != 0 {
		// density underflow to 0 is acceptable in the density domain
		if math.IsNaN(s) {
			t.Error("Score produced NaN")
		}
	}
}

func TestMeanLogLikelihood(t *testing.T) {
	m := twoBlobModel(t)
	if m.MeanLogLikelihood(nil) != 0 {
		t.Error("empty point set should give 0")
	}
	pts := []linalg.Vec2{{X: 0, Y: 0}, {X: 10, Y: 10}}
	ll := m.MeanLogLikelihood(pts)
	if ll >= 0 {
		t.Errorf("LL = %v, densities < 1 should give negative LL", ll)
	}
	// Through the candidate kernel, the mean keeps the dense mean's bits on
	// models whose grid prunes terms.
	rng := rand.New(rand.NewSource(23))
	pruned := 0
	for mi := 0; mi < 20; mi++ {
		m := randomLSEModel(t, rng, 5)
		xs, ys := lsePoints(rng, modelMeans(m))
		pts = pts[:0]
		dense := 0.0
		for i := range xs {
			if p := linalg.V2(xs[i], ys[i]); p.IsFinite() {
				pts = append(pts, p)
				dense += m.LogScore(p)
			}
		}
		if got, want := m.MeanLogLikelihood(pts), dense/float64(len(pts)); !sameBits(got, want) {
			t.Fatalf("model %d: MeanLogLikelihood %v, dense mean %v", mi, got, want)
		}
		pruned += prunedTerms(&m.bundle, xs, ys)
	}
	if pruned == 0 {
		t.Fatal("the grid pruned no term, so the comparison proves nothing")
	}
}

func TestValidate(t *testing.T) {
	m := twoBlobModel(t)
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := &Model{}
	if err := bad.Validate(); err == nil {
		t.Error("empty model accepted")
	}
	m2 := twoBlobModel(t)
	m2.Components[0].Weight = 0.9 // breaks simplex
	if err := m2.Validate(); err == nil {
		t.Error("non-normalized weights accepted")
	}
	m3 := twoBlobModel(t)
	m3.Components[1].Cov = linalg.SymDiag(-1, 1)
	if err := m3.Validate(); err == nil {
		t.Error("non-PD covariance accepted")
	}
}

// sampleMixture draws n points from a reference mixture for training tests.
func sampleMixture(n int, rng *rand.Rand) []linalg.Vec2 {
	pts := make([]linalg.Vec2, n)
	for i := range pts {
		if rng.Float64() < 0.7 {
			pts[i] = linalg.V2(rng.NormFloat64()*0.05+0.2, rng.NormFloat64()*0.05+0.3)
		} else {
			pts[i] = linalg.V2(rng.NormFloat64()*0.05+0.8, rng.NormFloat64()*0.05+0.7)
		}
	}
	return pts
}

func TestScoreMatchesComponentSum(t *testing.T) {
	// LogScore via log-sum-exp must agree with the naive density sum where
	// the naive sum is representable.
	m := twoBlobModel(t)
	for _, x := range []linalg.Vec2{{X: 0, Y: 0}, {X: 3, Y: 2}, {X: 10, Y: 10}, {X: 5, Y: 5}} {
		naive := 0.0
		for i := range m.Components {
			naive += math.Exp(m.Components[i].LogDensity(x))
		}
		if got := m.Score(x); math.Abs(got-naive) > 1e-12*math.Max(1, naive) {
			t.Errorf("Score(%v) = %v, naive sum %v", x, got, naive)
		}
	}
}
