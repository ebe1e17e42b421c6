// Package quant implements the weight-only symmetric quantization scheme of
// the paper (§2.4): values are mapped to n-bit integers via a per-tensor
// scale, using either deterministic (round-to-nearest) or stochastic
// rounding. Its tests check the rounding-variance bounds of Theorem 1
// behind the assigner's sensitivity indicator (§4.2).
//
// Unlike the cost models, this package operates on real float data: the
// reference transformer in internal/nn is quantized through it, so the
// quality numbers in the experiments come from actual rounding error, not a
// formula.
package quant

import (
	"fmt"
	"math"
	"math/rand"
)

// Rounding selects the rounding rule.
type Rounding int

const (
	// Deterministic rounds to the nearest representable level.
	Deterministic Rounding = iota
	// Stochastic rounds up with probability equal to the fractional part,
	// giving an unbiased estimate with larger variance (Theorem 1).
	Stochastic
)

func (r Rounding) String() string {
	switch r {
	case Deterministic:
		return "deterministic"
	case Stochastic:
		return "stochastic"
	default:
		return fmt.Sprintf("Rounding(%d)", int(r))
	}
}

// Tensor is a quantized weight tensor: packed integer levels plus the
// affine parameters needed to dequantize.
type Tensor struct {
	Bits  int
	Scale float64 // s_W
	Zero  float64 // q_W (symmetric: min of range)
	Q     []int32 // quantized levels
	Rows  int
	Cols  int
}

// Levels returns the number of representable levels at b bits.
func Levels(bits int) int { return 1 << bits }

// ScaleFor computes the symmetric scale s_W for data in [min,max] at the
// given bitwidth: the full range is split into 2^b - 1 steps.
func ScaleFor(minV, maxV float64, bits int) float64 {
	steps := float64(Levels(bits) - 1)
	r := maxV - minV
	if r == 0 {
		return 1
	}
	return r / steps
}

// Quantize quantizes w (row-major rows×cols) to bits using the given
// rounding rule. rng is required for Stochastic and ignored for
// Deterministic.
func Quantize(w []float64, rows, cols, bits int, r Rounding, rng *rand.Rand) (*Tensor, error) {
	if len(w) != rows*cols {
		return nil, fmt.Errorf("quant: data length %d != %d x %d", len(w), rows, cols)
	}
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("quant: unsupported bitwidth %d", bits)
	}
	if r == Stochastic && rng == nil {
		return nil, fmt.Errorf("quant: stochastic rounding requires a rand source")
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	s := ScaleFor(minV, maxV, bits)
	t := &Tensor{Bits: bits, Scale: s, Zero: minV, Q: make([]int32, len(w)), Rows: rows, Cols: cols}
	maxLevel := int32(Levels(bits) - 1)
	for i, v := range w {
		x := (v - minV) / s
		var q float64
		switch r {
		case Deterministic:
			q = math.Round(x)
		case Stochastic:
			fl := math.Floor(x)
			if rng.Float64() < x-fl {
				q = fl + 1
			} else {
				q = fl
			}
		}
		qi := int32(q)
		if qi < 0 {
			qi = 0
		}
		if qi > maxLevel {
			qi = maxLevel
		}
		t.Q[i] = qi
	}
	return t, nil
}

// Dequantize reconstructs float weights: ŵ = q·s + zero.
func (t *Tensor) Dequantize() []float64 {
	out := make([]float64, len(t.Q))
	for i, q := range t.Q {
		out[i] = float64(q)*t.Scale + t.Zero
	}
	return out
}

// RoundTrip quantizes and immediately dequantizes, the common path when
// loading a mixed-precision model.
func RoundTrip(w []float64, rows, cols, bits int, r Rounding, rng *rand.Rand) ([]float64, error) {
	t, err := Quantize(w, rows, cols, bits, r, rng)
	if err != nil {
		return nil, err
	}
	return t.Dequantize(), nil
}
