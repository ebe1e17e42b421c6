// Package indicator produces the per-(layer, bitwidth) model-quality
// perturbation scores ω that the assigner's objective trades against
// latency (paper §4.2).
//
// Three generators are provided, mirroring Table 6:
//
//   - Variance: the paper's contribution (Proposition 2) — an analytic
//     upper bound on the output variance a quantized linear operator adds,
//     computed from weight ranges and calibrated activation statistics in
//     one pass. Cheap.
//   - Hessian: the HAWQ-style baseline — per-layer curvature probed by
//     actually quantizing each layer at each bitwidth and measuring the
//     loss increase on calibration data. Accurate but orders of magnitude
//     more expensive (the paper reports 58–73x).
//   - Random: the control baseline.
//
// For models too large to instantiate (OPT-13b+), Synthetic derives ω from
// the model's shape metadata with the same depth-increasing sensitivity
// profile the reference models exhibit.
package indicator

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
)

// Omega holds ω[layer][bitIndex] aligned with Bits.
type Omega struct {
	Bits   []int
	Values [][]float64 // [layer][len(Bits)]
}

// At returns ω for (layer, bits).
func (o Omega) At(layer, bits int) (float64, error) {
	if layer < 0 || layer >= len(o.Values) {
		return 0, fmt.Errorf("indicator: layer %d out of range [0,%d)", layer, len(o.Values))
	}
	for i, b := range o.Bits {
		if b == bits {
			return o.Values[layer][i], nil
		}
	}
	return 0, fmt.Errorf("indicator: bitwidth %d not in %v", bits, o.Bits)
}

// Layers returns the number of layers covered.
func (o Omega) Layers() int { return len(o.Values) }

// Total sums ω over an assignment bits[layer].
func (o Omega) Total(assignment []int) (float64, error) {
	if len(assignment) != o.Layers() {
		return 0, fmt.Errorf("indicator: assignment length %d != %d layers", len(assignment), o.Layers())
	}
	var sum float64
	for i, b := range assignment {
		v, err := o.At(i, b)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// UniformTotal is Total of the assignment that puts every layer at bits.
func (o Omega) UniformTotal(bits int) (float64, error) {
	var sum float64
	for l := range o.Values {
		v, err := o.At(l, bits)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// Normalize rescales ω so a uniform INT4 assignment totals 1: θ's
// reference scale, and the paper's trick to "ensure that different
// indicators lead to similar inference latency, eliminating the influence
// of value range" (§6.5).
func (o Omega) Normalize() (Omega, error) {
	total, err := o.UniformTotal(4)
	if err != nil {
		return Omega{}, err
	}
	if total <= 0 {
		return Omega{}, fmt.Errorf("indicator: degenerate omega (uniform INT4 total %.3g)", total)
	}
	out := Omega{Bits: o.Bits}
	for l := range o.Values {
		row := make([]float64, len(o.Bits))
		for bi := range o.Bits {
			row[bi] = o.Values[l][bi] / total
		}
		out.Values = append(out.Values, row)
	}
	return out, nil
}

// Variance computes the paper's variance indicator from a calibrated
// reference model: ω_{i,b} = Σ_o D_W · S_W(b)² · G(X_o), with
// G = Var[X]/4 for deterministic rounding and (E[X]² + Var[X])/6 for
// stochastic (Theorem 1 / Proposition 2). FP16 is defined as zero
// perturbation.
func Variance(m *nn.Model, bits []int, r quant.Rounding) (Omega, error) {
	o := Omega{Bits: bits}
	for li := 0; li < len(m.Layers); li++ {
		stats, err := m.LayerLinearStats(li)
		if err != nil {
			return Omega{}, err
		}
		row := make([]float64, len(bits))
		for bi, b := range bits {
			if b >= 16 {
				continue // reference precision: no perturbation
			}
			var w float64
			for _, s := range stats {
				scale := quant.ScaleFor(s.WMin, s.WMax, b)
				var g float64
				switch r {
				case quant.Stochastic:
					g = (s.InMean*s.InMean + s.InVar) / 6
				default:
					g = s.InVar / 4
				}
				w += float64(s.DW) * scale * scale * g
			}
			row[bi] = w
		}
		o.Values = append(o.Values, row)
	}
	return o, nil
}

// Hessian probes per-layer curvature empirically: for every (layer, bit) it
// quantizes just that layer, measures the cross-entropy increase over the
// calibration corpus, and restores the layer. This is the expensive
// baseline of Table 6.
func Hessian(m *nn.Model, bits []int, calib [][]int) (Omega, error) {
	if len(calib) == 0 {
		return Omega{}, fmt.Errorf("indicator: hessian probe needs calibration sequences")
	}
	baseline, err := meanCE(m, calib)
	if err != nil {
		return Omega{}, err
	}
	o := Omega{Bits: bits}
	for li := 0; li < len(m.Layers); li++ {
		row := make([]float64, len(bits))
		for bi, b := range bits {
			if b >= 16 {
				continue
			}
			if err := m.SetLayerBits(li, b, quant.Deterministic, nil); err != nil {
				return Omega{}, err
			}
			ce, err := meanCE(m, calib)
			if err != nil {
				return Omega{}, err
			}
			d := ce - baseline
			if d < 0 {
				d = 0
			}
			row[bi] = d
		}
		if err := m.SetLayerBits(li, 16, quant.Deterministic, nil); err != nil {
			return Omega{}, err
		}
		o.Values = append(o.Values, row)
	}
	return o, nil
}

func meanCE(m *nn.Model, calib [][]int) (float64, error) {
	var total float64
	for _, seq := range calib {
		ce, err := m.CrossEntropy(seq)
		if err != nil {
			return 0, err
		}
		total += ce
	}
	return total / float64(len(calib)), nil
}

// Random assigns seeded random sensitivities, preserving only the
// within-layer ordering (lower bits ≥ perturbation of higher bits) so the
// optimizer still behaves sanely — matching the Table 6 control.
func Random(layers int, bits []int, seed int64) Omega {
	rng := rand.New(rand.NewSource(seed))
	o := Omega{Bits: bits}
	for i := 0; i < layers; i++ {
		base := rng.Float64()
		row := make([]float64, len(bits))
		for bi, b := range bits {
			if b >= 16 {
				continue
			}
			row[bi] = base * math.Pow(2, float64(16-b)/3)
		}
		o.Values = append(o.Values, row)
	}
	return o
}

// Synthetic derives ω for a full-size model from its metadata: scale
// shrinks 2x per extra bit (so ω scales 4x per bit step down), sensitivity
// grows with depth like the reference models (Table 1 ordering), with a
// reproducible ripple so layers are not exactly interchangeable.
func Synthetic(cfg model.Config, bits []int, seed int64) Omega {
	rng := rand.New(rand.NewSource(seed))
	o := Omega{Bits: bits}
	h := float64(cfg.Hidden)
	for i := 0; i < cfg.Layers; i++ {
		depth := float64(i) / math.Max(1, float64(cfg.Layers-1))
		mag := (1 + 0.35*depth) * (1 + 0.08*rng.NormFloat64())
		// Weight std ~ mag/sqrt(h); symmetric range ≈ ±4σ.
		rangeW := 8 * mag / math.Sqrt(h)
		row := make([]float64, len(bits))
		for bi, b := range bits {
			if b >= 16 {
				continue
			}
			scale := rangeW / float64(quant.Levels(b)-1)
			// Six linear ops, D_W ≈ hidden, G(X) ≈ Var/4 with Var ≈ 1.
			row[bi] = 6 * h * scale * scale / 4
		}
		o.Values = append(o.Values, row)
	}
	return o
}
