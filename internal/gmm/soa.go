package gmm

import "repro/internal/linalg"

// soa is the packed structure-of-arrays view of a prepared model: six
// parallel slices, one entry per component, holding exactly the constants
// the fused block kernel consumes per Gaussian — the mean coordinates, the
// precision-matrix entries and the log coefficient. It mirrors the FPGA
// weight-buffer layout (six words per component) in float64 and is rebuilt
// whenever the components are re-prepared, so scoring never walks the AoS
// Component structs on the hot path.
type soa struct {
	meanX, meanY  []float64
	pxx, pxy, pyy []float64
	logCoef       []float64

	// density turns the constants into log-densities:
	// linalg.LogDensityBatch for a float model's bundle,
	// linalg.FoldedLogDensityBatch for a quantized one's, whose precision
	// entries carry the folded -1/2.
	density func(dst, xs, ys []float64, muX, muY, pxx, pxy, pyy, logCoef float64)
}

// resize makes every slice exactly k long, reusing capacity.
func (s *soa) resize(k int) {
	if cap(s.meanX) < k {
		buf := make([]float64, 6*k)
		s.meanX, s.meanY = buf[:k:k], buf[k:2*k:2*k]
		s.pxx, s.pxy = buf[2*k:3*k:3*k], buf[3*k:4*k:4*k]
		s.pyy, s.logCoef = buf[4*k:5*k:5*k], buf[5*k:6*k:6*k]
		return
	}
	s.meanX, s.meanY = s.meanX[:k], s.meanY[:k]
	s.pxx, s.pxy, s.pyy = s.pxx[:k], s.pxy[:k], s.pyy[:k]
	s.logCoef = s.logCoef[:k]
}

// rebuildSOA repacks the prepared components into the scoring bundle. Every
// path that prepares components (New, RestoreModel, each EM iteration) calls
// it, so the bundle is always in sync with the AoS truth.
func (m *Model) rebuildSOA() {
	m.soa.resize(len(m.Components))
	m.soa.density = linalg.LogDensityBatch
	for i := range m.Components {
		c := &m.Components[i]
		m.soa.meanX[i], m.soa.meanY[i] = c.Mean.X, c.Mean.Y
		m.soa.pxx[i], m.soa.pxy[i], m.soa.pyy[i] = c.precision.XX, c.precision.XY, c.precision.YY
		m.soa.logCoef[i] = c.logCoef
	}
}

// Scratch is caller-owned scoring scratch for the batch kernels: the
// component-major block buffer, K·scoreBlock floats. The zero value is ready
// to use and grows on demand; after the first call at a given K, scoring
// through it allocates nothing.
//
// A Scratch may not be shared by concurrent callers — the serving path keeps
// one per partition, since partitions are drained on independent shard
// goroutines against the same shared model.
type Scratch struct {
	ld []float64 // ld[c*scoreBlock+i]: component c's log-density at block point i
}

// block returns the K-component block buffer, growing it if needed.
func (s *Scratch) block(k int) []float64 {
	if cap(s.ld) < k*scoreBlock {
		s.ld = make([]float64, k*scoreBlock)
	}
	return s.ld[:k*scoreBlock]
}
