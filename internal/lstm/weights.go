package lstm

import "fmt"

// LayerWeights is one LSTM layer's parameter block in export form. Gates are
// ordered i, f, g, o, matching the internal layout: Wx is [4*hidden][inDim],
// Wh is [4*hidden][hidden], B is [4*hidden]. Row r is the internal flat
// layout's row r, so Export and Restore only split and join rows.
type LayerWeights struct {
	Wx [][]float64 `json:"wx"`
	Wh [][]float64 `json:"wh"`
	B  []float64   `json:"b"`
}

// Weights is a network's full parameter set plus the shape that produced it.
// It serializes cleanly, so a trained network can be persisted, diffed in
// tests, or rebuilt on another process without replaying training.
type Weights struct {
	Config Config         `json:"config"`
	Layers []LayerWeights `json:"layers"`
	Wy     []float64      `json:"wy"`
	By     float64        `json:"by"`
}

// Export deep-copies the network's parameters.
func (n *Network) Export() Weights {
	w := Weights{
		Config: n.cfg,
		Layers: make([]LayerWeights, len(n.layers)),
		Wy:     append([]float64(nil), n.wy...),
		By:     n.by,
	}
	for li, l := range n.layers {
		w.Layers[li] = LayerWeights{
			Wx: rows(l.wx, l.inDim),
			Wh: rows(l.wh, l.hidden),
			B:  append([]float64(nil), l.b...),
		}
	}
	return w
}

// Restore replaces the network's parameters with a deep copy of w. The
// weight shapes must match the receiver's config exactly.
func (n *Network) Restore(w Weights) error {
	if w.Config != n.cfg {
		return fmt.Errorf("lstm: weights shaped %+v, network shaped %+v", w.Config, n.cfg)
	}
	if len(w.Layers) != len(n.layers) {
		return fmt.Errorf("lstm: weights have %d layers, network has %d", len(w.Layers), len(n.layers))
	}
	if len(w.Wy) != n.cfg.HiddenDim {
		return fmt.Errorf("lstm: head has %d weights, want %d", len(w.Wy), n.cfg.HiddenDim)
	}
	for li, l := range n.layers {
		lw := w.Layers[li]
		if err := checkMat(lw.Wx, 4*l.hidden, l.inDim); err != nil {
			return fmt.Errorf("lstm: layer %d wx: %w", li, err)
		}
		if err := checkMat(lw.Wh, 4*l.hidden, l.hidden); err != nil {
			return fmt.Errorf("lstm: layer %d wh: %w", li, err)
		}
		if len(lw.B) != 4*l.hidden {
			return fmt.Errorf("lstm: layer %d bias length %d, want %d", li, len(lw.B), 4*l.hidden)
		}
	}
	// Every shape checked out, so copying in place cannot leave the network
	// half restored.
	for li, l := range n.layers {
		lw := w.Layers[li]
		for r, row := range lw.Wx {
			copy(l.wx[r*l.inDim:], row)
		}
		for r, row := range lw.Wh {
			copy(l.wh[r*l.hidden:], row)
		}
		copy(l.b, lw.B)
	}
	copy(n.wy, w.Wy)
	n.by = w.By
	return nil
}

// rows splits a flat row-major matrix into copied rows of cols values.
func rows(flat []float64, cols int) [][]float64 {
	out := make([][]float64, len(flat)/cols)
	for r := range out {
		out[r] = append([]float64(nil), flat[r*cols:(r+1)*cols]...)
	}
	return out
}

func checkMat(m [][]float64, rows, cols int) error {
	if len(m) != rows {
		return fmt.Errorf("has %d rows, want %d", len(m), rows)
	}
	for i := range m {
		if len(m[i]) != cols {
			return fmt.Errorf("row %d has %d cols, want %d", i, len(m[i]), cols)
		}
	}
	return nil
}
