package trace

// Sample is one GMM training/inference input: the page index and the
// transformed timestamp produced by Algorithm 1. Both are carried as float64
// because the GMM operates in R^2.
type Sample struct {
	Page      float64
	Timestamp float64
}

// TransformConfig carries the Sec. 3.1 preprocessing parameters. The paper
// empirically selects LenWindow = 32 and LenAccessShot = 10000.
type TransformConfig struct {
	// LenWindow is the number of consecutive requests that share one
	// timestamp (the "time window" of Sec. 3.1).
	LenWindow int
	// LenAccessShot bounds the timestamp before it wraps to zero, i.e. the
	// number of time windows in one "access shot" (Algorithm 1 compares the
	// timestamp itself against this bound).
	LenAccessShot int
	// WarmupFrac is the fraction of the trace discarded from the front to
	// remove program warm-up bias (paper: 0.20).
	WarmupFrac float64
	// TailFrac is the fraction discarded from the end (paper: 0.10).
	TailFrac float64
}

// DefaultTransformConfig returns the configuration the paper evaluates with:
// len_window = 32, len_access_shot = 10000, drop first 20% and last 10%.
func DefaultTransformConfig() TransformConfig {
	return TransformConfig{
		LenWindow:     32,
		LenAccessShot: 10000,
		WarmupFrac:    0.20,
		TailFrac:      0.10,
	}
}

// Sanitized returns the config with invalid fields replaced by defaults so a
// zero value is still usable. Trim and Preprocess apply it internally; every
// other consumer of Timestamp applies it once up front, so all of them see
// the same effective windowing.
func (c TransformConfig) Sanitized() TransformConfig {
	d := DefaultTransformConfig()
	if c.LenWindow <= 0 {
		c.LenWindow = d.LenWindow
	}
	if c.LenAccessShot <= 0 {
		c.LenAccessShot = d.LenAccessShot
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		c.WarmupFrac = 0
	}
	if c.TailFrac < 0 || c.TailFrac >= 1 {
		c.TailFrac = 0
	}
	if c.WarmupFrac+c.TailFrac >= 1 {
		c.WarmupFrac, c.TailFrac = 0, 0
	}
	return c
}

// Trim drops the warm-up prefix and cool-down suffix of the trace per
// Sec. 3.1 (first 20%, last 10% with the default config) and returns the
// retained middle slice (aliasing the input's backing array).
func Trim(t Trace, cfg TransformConfig) Trace {
	cfg = cfg.Sanitized()
	n := len(t)
	lo := int(float64(n) * cfg.WarmupFrac)
	hi := n - int(float64(n)*cfg.TailFrac)
	if lo >= hi {
		return Trace{}
	}
	return t[lo:hi]
}

// Timestamp is the Algorithm 1 timestamp of the request with 0-based
// arrival index i: the timestamp advances once every lenWindow requests and
// wraps to zero when it reaches lenAccessShot, so request i gets
// floor(i/lenWindow) mod lenAccessShot. Being a pure function of the arrival
// index, the clock has no cursor to carry or checkpoint: every consumer that
// numbers its requests derives the same timestamps from the numbers alone.
// Both lengths must be positive (TransformConfig.Sanitized guarantees it).
func Timestamp(i uint64, lenWindow, lenAccessShot int) int {
	return int((i / uint64(lenWindow)) % uint64(lenAccessShot))
}

// Preprocess runs the full Sec. 3.1 pipeline on a raw trace: trim warm-up and
// tail, derive page indices, and apply the Algorithm 1 timestamp transform.
// The returned samples are the GMM inputs; their order matches the retained
// trace order.
func Preprocess(t Trace, cfg TransformConfig) []Sample {
	cfg = cfg.Sanitized()
	kept := Trim(t, cfg)
	out := make([]Sample, len(kept))
	for i, r := range kept {
		out[i] = Sample{
			Page:      float64(r.Page()),
			Timestamp: float64(Timestamp(uint64(i), cfg.LenWindow, cfg.LenAccessShot)),
		}
	}
	return out
}

// Normalizer maps samples into a numerically friendly range for EM. Raw page
// indices can span 2^40 while timestamps span 10^4; without rescaling the
// covariance matrices are catastrophically ill-conditioned. The hardware
// design bakes the same affine map into the trace decoder.
type Normalizer struct {
	PageOffset, PageScale float64
	TimeOffset, TimeScale float64
}

// FitNormalizer computes an affine map that sends the observed page-index
// and timestamp ranges each onto [0, 1]. Degenerate (constant) dimensions
// map to 0 with unit scale.
func FitNormalizer(samples []Sample) Normalizer {
	n := Normalizer{PageScale: 1, TimeScale: 1}
	if len(samples) == 0 {
		return n
	}
	minP, maxP := samples[0].Page, samples[0].Page
	minT, maxT := samples[0].Timestamp, samples[0].Timestamp
	for _, s := range samples[1:] {
		if s.Page < minP {
			minP = s.Page
		}
		if s.Page > maxP {
			maxP = s.Page
		}
		if s.Timestamp < minT {
			minT = s.Timestamp
		}
		if s.Timestamp > maxT {
			maxT = s.Timestamp
		}
	}
	n.PageOffset = minP
	if maxP > minP {
		n.PageScale = 1 / (maxP - minP)
	}
	n.TimeOffset = minT
	if maxT > minT {
		n.TimeScale = 1 / (maxT - minT)
	}
	return n
}

// Apply maps one sample through the normalizer.
func (n Normalizer) Apply(s Sample) Sample {
	return Sample{
		Page:      (s.Page - n.PageOffset) * n.PageScale,
		Timestamp: (s.Timestamp - n.TimeOffset) * n.TimeScale,
	}
}

// ApplyAll maps a slice of samples, returning a new slice.
func (n Normalizer) ApplyAll(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i] = n.Apply(s)
	}
	return out
}

// ApplyPageTime maps a raw (page, transformed timestamp) pair, the form used
// on the inference path where no Sample has been materialized.
func (n Normalizer) ApplyPageTime(page uint64, timestamp int) (float64, float64) {
	return (float64(page) - n.PageOffset) * n.PageScale,
		(float64(timestamp) - n.TimeOffset) * n.TimeScale
}
