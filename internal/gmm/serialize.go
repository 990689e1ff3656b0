package gmm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/linalg"
	"repro/internal/trace"
)

// modelJSON is the on-disk form of a trained model plus the normalizer that
// maps raw (page, timestamp) pairs into model coordinates. Persisting the
// two together mirrors the FPGA flow, where the affine map is baked into the
// trace decoder next to the weight buffer.
type modelJSON struct {
	Format     string          `json:"format"`
	K          int             `json:"k"`
	Components []componentJSON `json:"components"`
	Normalizer normalizerJSON  `json:"normalizer"`
}

type componentJSON struct {
	Weight float64    `json:"weight"`
	Mean   [2]float64 `json:"mean"`
	// Cov stores [xx, xy, yy] of the symmetric covariance.
	Cov [3]float64 `json:"cov"`
}

type normalizerJSON struct {
	PageOffset float64 `json:"page_offset"`
	PageScale  float64 `json:"page_scale"`
	TimeOffset float64 `json:"time_offset"`
	TimeScale  float64 `json:"time_scale"`
}

const formatName = "icgmm-gmm-v1"

// Save writes the model and normalizer as JSON.
func Save(w io.Writer, m *Model, norm trace.Normalizer) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("gmm: refusing to save invalid model: %w", err)
	}
	out := modelJSON{
		Format: formatName,
		K:      m.K(),
		Normalizer: normalizerJSON{
			PageOffset: norm.PageOffset, PageScale: norm.PageScale,
			TimeOffset: norm.TimeOffset, TimeScale: norm.TimeScale,
		},
	}
	for _, c := range m.Components {
		out.Components = append(out.Components, componentJSON{
			Weight: c.Weight,
			Mean:   [2]float64{c.Mean.X, c.Mean.Y},
			Cov:    [3]float64{c.Cov.XX, c.Cov.XY, c.Cov.YY},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RestoreModel rebuilds a model from components exactly as they sit in an
// existing Model — without the weight renormalization New applies. New
// divides every weight by their sum, and for weights that already sum to
// ~1.0 that division perturbs the low-order bits, so a Save/Load/New round
// trip scores within 1e-9 but not bit-identically. Checkpoint/resume of the
// serving subsystem needs the stronger guarantee: serialize m.Components
// verbatim (float64s survive JSON exactly) and RestoreModel re-derives the
// cached per-component quantities from those identical bits, giving a model
// whose every score matches the original to the last bit.
func RestoreModel(components []Component) (*Model, error) {
	if len(components) == 0 {
		return nil, errors.New("gmm: model needs at least one component")
	}
	m := &Model{Components: make([]Component, len(components))}
	copy(m.Components, components)
	for i := range m.Components {
		if m.Components[i].Weight < 0 {
			return nil, fmt.Errorf("gmm: component %d has negative weight", i)
		}
		if err := m.Components[i].prepare(); err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
	}
	m.rebuildBundle()
	return m, nil
}

// Load reads a model and normalizer written by Save.
func Load(r io.Reader) (*Model, trace.Normalizer, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, trace.Normalizer{}, fmt.Errorf("gmm: decoding model: %w", err)
	}
	if in.Format != formatName {
		return nil, trace.Normalizer{}, fmt.Errorf("gmm: unknown format %q", in.Format)
	}
	comps := make([]Component, len(in.Components))
	for i, c := range in.Components {
		comps[i] = Component{
			Weight: c.Weight,
			Mean:   linalg.V2(c.Mean[0], c.Mean[1]),
			Cov:    linalg.Sym2{XX: c.Cov[0], XY: c.Cov[1], YY: c.Cov[2]},
		}
	}
	m, err := New(comps)
	if err != nil {
		return nil, trace.Normalizer{}, err
	}
	norm := trace.Normalizer{
		PageOffset: in.Normalizer.PageOffset, PageScale: in.Normalizer.PageScale,
		TimeOffset: in.Normalizer.TimeOffset, TimeScale: in.Normalizer.TimeScale,
	}
	if norm.PageScale == 0 {
		norm.PageScale = 1
	}
	if norm.TimeScale == 0 {
		norm.TimeScale = 1
	}
	return m, norm, nil
}
