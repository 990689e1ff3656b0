package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMat2Mul(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 3, D: 4}
	n := Mat2{A: 5, B: 6, C: 7, D: 8}
	got := m.Mul(n)
	want := Mat2{A: 19, B: 22, C: 43, D: 50}
	if got != want {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	if id := (Mat2{A: 1, D: 1}); m.Mul(id) != m || id.Mul(m) != m {
		t.Error("identity is not a multiplicative unit")
	}
}

func TestMat2AddSubScale(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 3, D: 4}
	n := Mat2{A: 5, B: -6, C: 7, D: 0.5}
	if got, want := m.Add(n), (Mat2{A: 6, B: -4, C: 10, D: 4.5}); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := m.Sub(n), (Mat2{A: -4, B: 8, C: -4, D: 3.5}); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := m.Scale(-2), (Mat2{A: -2, B: -4, C: -6, D: -8}); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := m.String(), "[[1 2] [3 4]]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSym2Arithmetic(t *testing.T) {
	s := Sym2{XX: 2, XY: 0.5, YY: 3}
	u := Sym2{XX: 1, XY: -1, YY: 4}
	if got, want := s.Add(u), (Sym2{XX: 3, XY: -0.5, YY: 7}); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := s.Sub(u), (Sym2{XX: 1, XY: 1.5, YY: -1}); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := s.Scale(2), (Sym2{XX: 4, XY: 1, YY: 6}); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := s.String(), "[[2 0.5] [0.5 3]]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMat2Inverse(t *testing.T) {
	m := Mat2{A: 4, B: 7, C: 2, D: 6}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	prod := m.Mul(inv)
	id := Mat2{A: 1, D: 1}
	for _, pair := range [][2]float64{
		{prod.A, id.A}, {prod.B, id.B}, {prod.C, id.C}, {prod.D, id.D},
	} {
		if !almostEq(pair[0], pair[1], 1e-12) {
			t.Errorf("m*m^-1 = %v, want identity", prod)
		}
	}
	if _, ok := (Mat2{A: 1, B: 2, C: 2, D: 4}).Inverse(); ok {
		t.Error("singular matrix reported invertible")
	}
}

func TestMat2TransposeDetTrace(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 3, D: 4}
	if m.Transpose() != (Mat2{A: 1, B: 3, C: 2, D: 4}) {
		t.Error("bad transpose")
	}
	if m.Det() != -2 {
		t.Errorf("Det = %v, want -2", m.Det())
	}
	if m.Trace() != 5 {
		t.Errorf("Trace = %v, want 5", m.Trace())
	}
}

func TestMat2SymPart(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 4, D: 5}
	s := m.Sym()
	if s != (Sym2{XX: 1, XY: 3, YY: 5}) {
		t.Errorf("Sym = %v", s)
	}
}

func TestSym2Inverse(t *testing.T) {
	s := Sym2{XX: 2, XY: 0.5, YY: 3}
	inv, ok := s.Inverse()
	if !ok {
		t.Fatal("PD matrix reported singular")
	}
	prod := s.Mat().Mul(inv.Mat())
	if !almostEq(prod.A, 1, 1e-12) || !almostEq(prod.D, 1, 1e-12) ||
		!almostEq(prod.B, 0, 1e-12) || !almostEq(prod.C, 0, 1e-12) {
		t.Errorf("s*s^-1 = %v, want identity", prod)
	}
}

func TestSym2PositiveDefinite(t *testing.T) {
	cases := []struct {
		s    Sym2
		want bool
	}{
		{SymDiag(1, 1), true},
		{Sym2{XX: 2, XY: 1, YY: 2}, true},
		{Sym2{XX: -1, YY: 1}, false},
		{Sym2{XX: 1, XY: 2, YY: 1}, false}, // indefinite
		{Sym2{XX: 0, YY: 0}, false},        // PSD but not PD
	}
	for _, c := range cases {
		if got := c.s.IsPositiveDefinite(); got != c.want {
			t.Errorf("IsPositiveDefinite(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSym2QuadForm(t *testing.T) {
	s := Sym2{XX: 2, XY: 1, YY: 3}
	v := V2(1, 2)
	// v^T s v = 2*1 + 2*1*2*1 + 3*4 = 2 + 4 + 12 = 18
	if got := s.QuadForm(v); got != 18 {
		t.Errorf("QuadForm = %v, want 18", got)
	}
}

func TestSym2Eigenvalues(t *testing.T) {
	s := SymDiag(5, 2)
	hi, lo := s.Eigenvalues()
	if hi != 5 || lo != 2 {
		t.Errorf("Eigenvalues = %v, %v, want 5, 2", hi, lo)
	}
	// Rotationally mixed matrix: eigenvalues preserved under similarity.
	s2 := Sym2{XX: 3.5, XY: 1.5, YY: 3.5}
	hi2, lo2 := s2.Eigenvalues()
	if !almostEq(hi2, 5, 1e-12) || !almostEq(lo2, 2, 1e-12) {
		t.Errorf("Eigenvalues = %v, %v, want 5, 2", hi2, lo2)
	}
}

func TestSym2Regularize(t *testing.T) {
	s := Sym2{XX: 0, XY: 0, YY: 0}
	r := s.Regularize(1e-6)
	if !r.IsPositiveDefinite() {
		t.Error("regularized zero matrix should be PD")
	}
	if r.XY != 0 {
		t.Error("regularization must not touch off-diagonal")
	}
}

func TestMahalanobis(t *testing.T) {
	// With identity precision, Mahalanobis^2 == squared Euclidean distance.
	x, mu := V2(3, 4), V2(0, 0)
	if got := MahalanobisSquared(x, mu, SymDiag(1, 1)); got != 25 {
		t.Errorf("MahalanobisSquared = %v, want 25", got)
	}
}

// randPD returns a random positive definite Sym2 built as A^T A + eps I.
func randPD(r *rand.Rand) Sym2 {
	a := Mat2{A: r.NormFloat64(), B: r.NormFloat64(), C: r.NormFloat64(), D: r.NormFloat64()}
	s := a.Transpose().Mul(a).Sym().Regularize(0.1)
	return s
}

// Property: inverse of a PD matrix is PD and involutive.
func TestSym2InverseProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randPD(r)
		inv, ok := s.Inverse()
		if !ok {
			t.Fatalf("PD matrix %v reported singular", s)
		}
		if !inv.IsPositiveDefinite() {
			t.Fatalf("inverse %v of PD matrix not PD", inv)
		}
		back, _ := inv.Inverse()
		if !almostEq(back.XX, s.XX, 1e-9) || !almostEq(back.XY, s.XY, 1e-6) ||
			!almostEq(back.YY, s.YY, 1e-9) {
			t.Fatalf("(s^-1)^-1 = %v, want %v", back, s)
		}
	}
}

// Property: Mahalanobis distance is non-negative for PD precision matrices
// and zero iff x == mu.
func TestMahalanobisNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		s := randPD(r)
		prec, _ := s.Inverse()
		x := V2(r.NormFloat64()*10, r.NormFloat64()*10)
		mu := V2(r.NormFloat64()*10, r.NormFloat64()*10)
		d := MahalanobisSquared(x, mu, prec)
		if d < 0 {
			t.Fatalf("negative Mahalanobis %v", d)
		}
	}
	if MahalanobisSquared(V2(1, 1), V2(1, 1), SymDiag(1, 1)) != 0 {
		t.Error("distance to self should be zero")
	}
}

// Property: det(m*n) == det(m)*det(n).
func TestDetMultiplicative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		if anyBad(a, b, c, d, e, g, h, i) {
			return true
		}
		// Keep magnitudes tame so products stay finite.
		clamp := func(x float64) float64 { return math.Mod(x, 1e3) }
		m := Mat2{clamp(a), clamp(b), clamp(c), clamp(d)}
		n := Mat2{clamp(e), clamp(g), clamp(h), clamp(i)}
		return almostEq(m.Mul(n).Det(), m.Det()*n.Det(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSym2EigenvaluesMatchTraceDet(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		s := randPD(r)
		hi, lo := s.Eigenvalues()
		if hi < lo {
			t.Fatalf("eigenvalues out of order: %v < %v", hi, lo)
		}
		if !almostEq(hi+lo, s.Trace(), 1e-9) {
			t.Fatalf("eigensum %v != trace %v", hi+lo, s.Trace())
		}
		if !almostEq(hi*lo, s.Det(), 1e-6) {
			t.Fatalf("eigenproduct %v != det %v", hi*lo, s.Det())
		}
		if lo <= 0 {
			t.Fatalf("PD matrix has non-positive eigenvalue %v", lo)
		}
	}
}

func TestSym2IsFinite(t *testing.T) {
	if !(Sym2{1, 2, 3}).IsFinite() {
		t.Error("finite matrix reported non-finite")
	}
	if (Sym2{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN matrix reported finite")
	}
	if (Sym2{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf matrix reported finite")
	}
}
