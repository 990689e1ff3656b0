// Package gmm implements the two-dimensional Gaussian Mixture Model that is
// the algorithmic contribution of ICGMM (Sec. 2.3 and Sec. 3). The model
// takes a (page index, transformed timestamp) point and returns a score that
// predicts the future access frequency of the page; the cache policy engine
// uses the score for admission and eviction decisions.
//
// The package provides the model itself, Expectation-Maximization training
// (Sec. 3.3) with k-means++ initialization, JSON serialization, and a
// fixed-point quantized variant mirroring the FPGA weight-buffer layout.
package gmm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// log(2*pi), the normalization constant exponent shared by all 2-D Gaussians.
const log2Pi = 1.8378770664093453

// Component is one weighted 2-D Gaussian in the mixture.
type Component struct {
	// Weight is the mixing proportion pi_k; weights sum to 1 across the model.
	Weight float64
	// Mean is the component mean mu_k in (page, timestamp) space.
	Mean linalg.Vec2
	// Cov is the full 2x2 covariance Sigma_k.
	Cov linalg.Sym2

	// Cached derived quantities, rebuilt by prepare().
	precision linalg.Sym2 // Sigma_k^-1
	logCoef   float64     // log(pi_k) - log(2*pi) - 0.5*log|Sigma_k|
	valid     bool
}

// prepare computes the cached precision matrix and log-coefficient. It
// returns an error when the covariance is not positive definite or the
// weight is non-positive (such a component cannot contribute density).
func (c *Component) prepare() error {
	det := c.Cov.Det()
	if !c.Cov.IsPositiveDefinite() {
		return fmt.Errorf("gmm: covariance %v not positive definite", c.Cov)
	}
	prec, ok := c.Cov.Inverse()
	if !ok {
		return fmt.Errorf("gmm: covariance %v not invertible", c.Cov)
	}
	if c.Weight <= 0 {
		c.precision = prec
		c.logCoef = math.Inf(-1)
		c.valid = true
		return nil
	}
	c.precision = prec
	c.logCoef = math.Log(c.Weight) - log2Pi - 0.5*math.Log(det)
	c.valid = true
	return nil
}

// LogDensity returns log(pi_k * N(x | mu_k, Sigma_k)).
func (c *Component) LogDensity(x linalg.Vec2) float64 {
	return c.logCoef - 0.5*linalg.MahalanobisSquared(x, c.Mean, c.precision)
}

// Model is a K-component 2-D Gaussian mixture.
type Model struct {
	Components []Component

	// bundle is the packed scoring form the batch kernel reads, with its
	// candidate grid. New, RestoreModel and Fit build it once for the model
	// they return; it is never rebuilt per EM iteration.
	bundle bundle
}

// New builds a model from components, validating and caching the derived
// per-component quantities. Weights are renormalized to sum to one.
func New(components []Component) (*Model, error) {
	m, err := newPrepared(components)
	if err != nil {
		return nil, err
	}
	m.rebuildBundle()
	return m, nil
}

// newPrepared is New without the scoring bundle: EM builds its initial and
// per-iteration models with it, and the bundle only for the model it
// returns.
func newPrepared(components []Component) (*Model, error) {
	if len(components) == 0 {
		return nil, errors.New("gmm: model needs at least one component")
	}
	total := 0.0
	for i := range components {
		if components[i].Weight < 0 {
			return nil, fmt.Errorf("gmm: component %d has negative weight", i)
		}
		total += components[i].Weight
	}
	if total <= 0 {
		return nil, errors.New("gmm: weights sum to zero")
	}
	m := &Model{Components: make([]Component, len(components))}
	copy(m.Components, components)
	for i := range m.Components {
		m.Components[i].Weight /= total
		if err := m.Components[i].prepare(); err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
	}
	return m, nil
}

// K returns the number of mixture components.
func (m *Model) K() int { return len(m.Components) }

// Score evaluates the mixture density G(x) = sum_k pi_k N(x | mu_k, Sigma_k),
// the paper's Eq. 3, over every component. Higher scores predict more
// frequent future access. Scoring goes through ScorePageTimeBatchScratch;
// Score, ScorePageTime and LogScore are the dense reference it is tested
// against, bit for bit.
func (m *Model) Score(x linalg.Vec2) float64 {
	return math.Exp(m.LogScore(x))
}

// ScorePageTime is Score taking the two GMM inputs directly.
func (m *Model) ScorePageTime(page, timestamp float64) float64 {
	return m.Score(linalg.V2(page, timestamp))
}

// LogScore evaluates log G(x) in the log domain via log-sum-exp, which stays
// finite even when every component density underflows float64. The sum
// skips only the negligible terms, so it has the bits of the dense sum.
func (m *Model) LogScore(x linalg.Vec2) float64 {
	maxLog := math.Inf(-1)
	for i := range m.Components {
		if ld := m.Components[i].LogDensity(x); ld > maxLog {
			maxLog = ld
		}
	}
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for i := range m.Components {
		if d := m.Components[i].LogDensity(x) - maxLog; !negligible(d, sum) {
			sum += math.Exp(d)
		}
	}
	return maxLog + math.Log(sum)
}

// MeanLogLikelihood returns the average log density over the points, the
// likelihood term of BIC and AIC, scored through the candidate kernel.
func (m *Model) MeanLogLikelihood(points []linalg.Vec2) float64 {
	if len(points) == 0 {
		return 0
	}
	var s Scratch
	ld := s.terms(len(m.bundle.terms))
	sum := 0.0
	for _, p := range points {
		sum += m.bundle.logScore(p.X, p.Y, ld)
	}
	return sum / float64(len(points))
}

// Validate checks the model invariants: weights form a probability simplex
// and every covariance is positive definite with finite entries.
func (m *Model) Validate() error {
	if len(m.Components) == 0 {
		return errors.New("gmm: empty model")
	}
	sum := 0.0
	for i := range m.Components {
		c := &m.Components[i]
		if c.Weight < 0 || c.Weight > 1+1e-9 {
			return fmt.Errorf("gmm: component %d weight %v outside [0,1]", i, c.Weight)
		}
		sum += c.Weight
		if !c.Cov.IsPositiveDefinite() {
			return fmt.Errorf("gmm: component %d covariance not PD", i)
		}
		if !c.Cov.IsFinite() || !c.Mean.IsFinite() {
			return fmt.Errorf("gmm: component %d has non-finite parameters", i)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("gmm: weights sum to %v, want 1", sum)
	}
	return nil
}
