package serve

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/gmm"
	"repro/internal/trace"
)

// RefreshMode selects how online model refresh runs.
type RefreshMode int

const (
	// RefreshOff disables refresh: the initial bundle serves forever.
	RefreshOff RefreshMode = iota
	// RefreshSync refits at the batch boundary that triggered it: serving
	// pauses for one refit (itself sharded over the worker pool), and
	// results stay bit-identical at any shard count.
	RefreshSync
)

// String names the mode as the -refresh flag spells it.
func (m RefreshMode) String() string {
	switch m {
	case RefreshSync:
		return "sync"
	default:
		return "off"
	}
}

// ParseRefreshMode maps a -refresh flag value to its mode.
func ParseRefreshMode(s string) (RefreshMode, error) {
	switch s {
	case "off":
		return RefreshOff, nil
	case "sync":
		return RefreshSync, nil
	}
	return RefreshOff, fmt.Errorf("serve: unknown refresh mode %q (valid: off|sync)", s)
}

// DriftConfig parameterizes the hit-ratio drift detector.
type DriftConfig struct {
	// Delta is how far (in absolute hit-ratio) a batch must fall below the
	// baseline to count as drifting.
	Delta float64
	// Sustain is the number of consecutive drifting batches required to
	// fire — one noisy batch never triggers a refit — and, symmetrically,
	// the number of consecutive recovered batches required to re-arm.
	Sustain int
	// Warmup is the number of batches used to seed the baseline before the
	// detector arms.
	Warmup int
	// Alpha is the EWMA coefficient of the baseline tracker.
	Alpha float64
}

// DefaultDriftConfig returns a detector tuned for ~8k-request batches: a
// sustained 10-point hit-ratio drop over 3 batches fires.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{Delta: 0.10, Sustain: 3, Warmup: 8, Alpha: 0.05}
}

// Validate checks the parameters.
func (c DriftConfig) Validate() error {
	if c.Delta <= 0 || c.Delta >= 1 {
		return errors.New("serve: drift delta outside (0,1)")
	}
	if c.Sustain <= 0 || c.Warmup < 1 {
		return errors.New("serve: non-positive drift sustain/warmup")
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return errors.New("serve: drift alpha outside (0,1]")
	}
	return nil
}

// DriftDetector is a hysteresis state machine over per-batch hit ratios: it
// fires exactly once per sustained drift episode. While armed, Sustain
// consecutive batches below baseline-Delta fire it; once fired it stays
// silent (and freezes the baseline) until Sustain consecutive batches back
// within Delta of the baseline re-arm it — so a refresh that restores the
// hit ratio re-arms the detector for the next episode, while an episode the
// refresh cannot cure does not retrain in a loop.
type DriftDetector struct {
	cfg      DriftConfig
	baseline float64
	seen     int
	bad      int
	good     int
	fired    bool
}

// NewDriftDetector builds a detector from a valid config (see
// DriftConfig.Validate, which RefreshConfig.Validate runs whenever refresh
// is on).
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	return &DriftDetector{cfg: cfg}
}

// Baseline returns the current EWMA hit-ratio baseline.
func (d *DriftDetector) Baseline() float64 { return d.baseline }

// Fired reports whether the detector is inside a fired episode.
func (d *DriftDetector) Fired() bool { return d.fired }

// Observe feeds one batch hit ratio and reports whether a refresh should
// fire now.
func (d *DriftDetector) Observe(hitRatio float64) bool {
	d.seen++
	if d.seen <= d.cfg.Warmup {
		if d.seen == 1 {
			d.baseline = hitRatio
		} else {
			d.baseline += d.cfg.Alpha * (hitRatio - d.baseline)
		}
		return false
	}
	drifting := hitRatio < d.baseline-d.cfg.Delta
	if d.fired {
		if drifting {
			d.good = 0
			return false
		}
		d.baseline += d.cfg.Alpha * (hitRatio - d.baseline)
		d.good++
		if d.good >= d.cfg.Sustain {
			d.fired = false
			d.good = 0
		}
		return false
	}
	if drifting {
		d.bad++
		if d.bad >= d.cfg.Sustain {
			d.fired = true
			d.bad = 0
			return true
		}
		return false
	}
	d.bad = 0
	d.baseline += d.cfg.Alpha * (hitRatio - d.baseline)
	return false
}

// RefreshConfig configures online model refresh.
type RefreshConfig struct {
	// Mode selects off/sync (see RefreshMode).
	Mode RefreshMode
	// Drift parameterizes the trigger.
	Drift DriftConfig
	// WindowSamples is the ring of recent requests a refit trains on
	// (default 65536).
	WindowSamples int
	// MinSamples is the minimum window fill before a refit is attempted.
	MinSamples int
}

// DefaultRefreshConfig returns refresh disabled with sensible refit
// parameters, so enabling is just setting Mode.
func DefaultRefreshConfig() RefreshConfig {
	return RefreshConfig{
		Mode:          RefreshOff,
		Drift:         DefaultDriftConfig(),
		WindowSamples: 1 << 16,
		MinSamples:    4096,
	}
}

// Validate checks the configuration.
func (c RefreshConfig) Validate() error {
	if c.Mode == RefreshOff {
		return nil
	}
	if c.WindowSamples <= 1 {
		return errors.New("serve: refresh window too small")
	}
	if c.MinSamples < 2 {
		return errors.New("serve: refresh minimum sample count too small")
	}
	if c.MinSamples > c.WindowSamples {
		// The window caps at WindowSamples, so a larger MinSamples could
		// never be met: a latched drift fire would wait forever.
		return fmt.Errorf("serve: refresh MinSamples %d exceeds WindowSamples %d", c.MinSamples, c.WindowSamples)
	}
	return c.Drift.Validate()
}

// sampleWindow is a ring of the most recent requests' pages. Only the ingest
// loop touches it, and while refresh is on it pushes every request, so the
// newest page arrived at the service's sequence number minus one: each
// page's Algorithm 1 timestamp is a function of its position, derived when a
// refit snapshots the ring rather than stored.
type sampleWindow struct {
	pages []float64
	pos   int
	full  bool
}

// newSampleWindow sizes the ring for the refresh configuration. Nothing
// pushes to it while refresh is off, so it then holds no storage.
func newSampleWindow(cfg RefreshConfig) *sampleWindow {
	if cfg.Mode == RefreshOff {
		return &sampleWindow{}
	}
	return &sampleWindow{pages: make([]float64, cfg.WindowSamples)}
}

func (w *sampleWindow) push(page float64) {
	w.pages[w.pos] = page
	w.pos++
	if w.pos == len(w.pages) {
		w.pos = 0
		w.full = true
	}
}

func (w *sampleWindow) size() int {
	if w.full {
		return len(w.pages)
	}
	return w.pos
}

// snapshot returns the window's samples in chronological order (oldest
// first), each stamped with the Algorithm 1 timestamp of its arrival index:
// the oldest of n samples arrived at seq-n, where seq is the service's
// sequence number (the index the next request will get).
func (w *sampleWindow) snapshot(seq uint64, tcfg trace.TransformConfig) []trace.Sample {
	out := make([]trace.Sample, w.size())
	first := seq - uint64(len(out))
	j := 0
	if w.full {
		j = w.pos
	}
	for i := range out {
		ts := trace.Timestamp(first+uint64(i), tcfg.LenWindow, tcfg.LenAccessShot)
		out[i] = trace.Sample{Page: w.pages[j], Timestamp: float64(ts)}
		if j++; j == len(w.pages) {
			j = 0
		}
	}
	return out
}

// refresher owns the live bundle and the refresh machinery. It runs
// entirely on the ingest loop, at batch boundaries.
type refresher struct {
	svc      *Service
	detector *DriftDetector

	bundle    *Bundle
	started   uint64 // refits launched, also the refit seed index
	installed uint64 // bundles installed
	// failed counts refits that errored (the old bundle is kept), surfaced
	// in Snapshot and the summary metrics so "no drift" and "every refit
	// errored" are distinguishable.
	failed uint64

	// pendingFire holds a detector fire that arrived before the sample
	// window reached MinSamples; the refit retries at the next batch
	// boundary instead of dropping the episode (the detector latches fired
	// and will not fire again until recovery).
	pendingFire bool
}

func newRefresher(s *Service, b *Bundle) *refresher {
	return &refresher{svc: s, detector: NewDriftDetector(s.cfg.Refresh.Drift), bundle: b}
}

// observe feeds the batch hit ratio to the detector and, when it fires,
// refits and installs the new bundle before the next batch.
func (r *refresher) observe(hitRatio float64) {
	if r.svc.cfg.Refresh.Mode == RefreshOff {
		return
	}
	fired := r.detector.Observe(hitRatio)
	if fired {
		r.svc.emit(Event{Kind: EventDrift, HitRatio: hitRatio, Baseline: r.detector.Baseline()})
	}
	if !fired && !r.pendingFire {
		return
	}
	if r.svc.window.size() < r.svc.cfg.Refresh.MinSamples {
		r.pendingFire = true
		return
	}
	r.pendingFire = false
	seed := engine.DeriveSeed(r.svc.cfg.Train.Seed, r.started)
	r.started++
	nb, err := r.refit(r.svc.window.snapshot(r.svc.seq, r.svc.tcfg), seed)
	if err != nil {
		r.failed++
		r.svc.emit(Event{Kind: EventRefreshFailed, Err: err.Error()})
		return
	}
	r.install(nb)
}

// refit trains a fresh bundle on the sample window: refit the normalizer to
// the drifted working set, EM with the E-step sharded over engine.Map, and
// threshold recalibration on the window scores. Under q16 scoring a refitted
// model that saturates Q16.16 fails the refit (the service keeps serving the
// old bundle and counts a failed refresh) rather than installing a scorer
// whose fixed-point densities are unfaithful.
func (r *refresher) refit(samples []trace.Sample, seed int64) (*Bundle, error) {
	norm := trace.FitNormalizer(samples)
	normed := norm.ApplyAll(samples)
	tcfg := r.svc.cfg.trainConfig()
	tcfg.Seed = seed
	res, err := gmm.Fit(normed, tcfg)
	if err != nil {
		return nil, err
	}
	return buildBundle(res.Model, norm, normed, r.svc.cfg)
}

// install publishes the bundle, rebases every tenant's effective threshold
// (new calibrated base x preserved controller multiplier) into every
// partition's policy engine, and rescores resident blocks onto the new
// model's density scale so eviction never compares scores across models.
func (r *refresher) install(nb *Bundle) {
	r.bundle = nb
	r.svc.applyThresholds()
	r.svc.rescoreResident(nb)
	r.installed++
	r.svc.metrics.writeRefresh(r.svc.batches, r.installed, nb.Threshold)
	r.svc.emit(Event{Kind: EventRefresh, Threshold: nb.Threshold, Refreshes: r.installed})
}
