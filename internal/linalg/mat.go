package linalg

import (
	"fmt"
	"math"
)

// Mat2 is a general 2x2 matrix laid out as
//
//	| A B |
//	| C D |
type Mat2 struct {
	A, B, C, D float64
}

// Add returns m + n.
func (m Mat2) Add(n Mat2) Mat2 {
	return Mat2{m.A + n.A, m.B + n.B, m.C + n.C, m.D + n.D}
}

// Sub returns m - n.
func (m Mat2) Sub(n Mat2) Mat2 {
	return Mat2{m.A - n.A, m.B - n.B, m.C - n.C, m.D - n.D}
}

// Scale returns s*m.
func (m Mat2) Scale(s float64) Mat2 {
	return Mat2{s * m.A, s * m.B, s * m.C, s * m.D}
}

// Mul returns the matrix product m*n.
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		A: m.A*n.A + m.B*n.C, B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C, D: m.C*n.B + m.D*n.D,
	}
}

// Transpose returns m^T.
func (m Mat2) Transpose() Mat2 { return Mat2{m.A, m.C, m.B, m.D} }

// Det returns the determinant of m.
func (m Mat2) Det() float64 { return m.A*m.D - m.B*m.C }

// Trace returns the trace of m.
func (m Mat2) Trace() float64 { return m.A + m.D }

// Inverse returns m^-1 and reports whether m was invertible. A matrix whose
// determinant is exactly zero (or not finite) is reported as singular.
func (m Mat2) Inverse() (Mat2, bool) {
	det := m.Det()
	if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
		return Mat2{}, false
	}
	inv := 1 / det
	return Mat2{A: m.D * inv, B: -m.B * inv, C: -m.C * inv, D: m.A * inv}, true
}

// Sym returns the symmetric part (m + m^T)/2 of m.
func (m Mat2) Sym() Sym2 {
	return Sym2{XX: m.A, XY: 0.5 * (m.B + m.C), YY: m.D}
}

// String renders the matrix for diagnostics.
func (m Mat2) String() string {
	return fmt.Sprintf("[[%g %g] [%g %g]]", m.A, m.B, m.C, m.D)
}

// Sym2 is a symmetric 2x2 matrix stored by its three free entries:
//
//	| XX XY |
//	| XY YY |
//
// Covariance matrices of the 2-D GMM are Sym2 values.
type Sym2 struct {
	XX, XY, YY float64
}

// SymDiag returns diag(x, y).
func SymDiag(x, y float64) Sym2 { return Sym2{XX: x, YY: y} }

// Add returns s + t.
func (s Sym2) Add(t Sym2) Sym2 {
	return Sym2{s.XX + t.XX, s.XY + t.XY, s.YY + t.YY}
}

// Sub returns s - t.
func (s Sym2) Sub(t Sym2) Sym2 {
	return Sym2{s.XX - t.XX, s.XY - t.XY, s.YY - t.YY}
}

// Scale returns c*s.
func (s Sym2) Scale(c float64) Sym2 {
	return Sym2{c * s.XX, c * s.XY, c * s.YY}
}

// Mat returns the symmetric matrix as a general Mat2.
func (s Sym2) Mat() Mat2 { return Mat2{A: s.XX, B: s.XY, C: s.XY, D: s.YY} }

// Det returns the determinant of s.
func (s Sym2) Det() float64 { return s.XX*s.YY - s.XY*s.XY }

// Trace returns the trace of s.
func (s Sym2) Trace() float64 { return s.XX + s.YY }

// Inverse returns s^-1 (still symmetric) and whether s was invertible.
func (s Sym2) Inverse() (Sym2, bool) {
	det := s.Det()
	if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
		return Sym2{}, false
	}
	inv := 1 / det
	return Sym2{XX: s.YY * inv, XY: -s.XY * inv, YY: s.XX * inv}, true
}

// IsPositiveDefinite reports whether s is positive definite, using Sylvester's
// criterion (leading principal minors strictly positive).
func (s Sym2) IsPositiveDefinite() bool {
	return s.XX > 0 && s.Det() > 0
}

// QuadForm returns v^T * s * v.
func (s Sym2) QuadForm(v Vec2) float64 {
	return v.X*v.X*s.XX + 2*v.X*v.Y*s.XY + v.Y*v.Y*s.YY
}

// Regularize returns s + eps*I. EM uses it to keep covariance estimates
// positive definite when a mixture component collapses onto few points.
func (s Sym2) Regularize(eps float64) Sym2 {
	return Sym2{XX: s.XX + eps, XY: s.XY, YY: s.YY + eps}
}

// Eigenvalues returns the two (real) eigenvalues of s in descending order.
func (s Sym2) Eigenvalues() (hi, lo float64) {
	m := 0.5 * s.Trace()
	// Discriminant of the characteristic polynomial; non-negative for
	// symmetric matrices up to rounding.
	d := math.Sqrt(math.Max(0, m*m-s.Det()))
	return m + d, m - d
}

// IsFinite reports whether all entries are finite.
func (s Sym2) IsFinite() bool {
	for _, f := range [3]float64{s.XX, s.XY, s.YY} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// String renders the matrix for diagnostics.
func (s Sym2) String() string {
	return fmt.Sprintf("[[%g %g] [%g %g]]", s.XX, s.XY, s.XY, s.YY)
}

// MahalanobisSquared returns (x-mu)^T * sigmaInv * (x-mu), the squared
// Mahalanobis distance given the precision (inverse covariance) matrix.
func MahalanobisSquared(x, mu Vec2, sigmaInv Sym2) float64 {
	return sigmaInv.QuadForm(x.Sub(mu))
}
