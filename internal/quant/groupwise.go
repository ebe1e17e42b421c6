// Group-wise and per-channel quantization — the newer weight-only schemes
// the paper's §7 discusses as drop-in candidates (AWQ, SpQR, GPTQ's
// group-size variants). Instead of one scale per tensor, the weight matrix
// is split into groups of `groupSize` consecutive elements per output
// channel (or one group per channel), each with its own scale: outliers
// then inflate only their own group's scale, recovering most of the
// quality lost to per-tensor scaling at a small metadata cost.
package quant

import (
	"fmt"
	"math"
	"math/rand"
)

// Scheme identifies a weight-quantization scheme.
type Scheme int

const (
	// PerTensor is the baseline scheme of the paper's main experiments:
	// one (scale, zero) pair for the whole tensor.
	PerTensor Scheme = iota
	// PerChannel uses one (scale, zero) pair per output channel (column).
	PerChannel
	// GroupWise uses one pair per group of GroupSize weights within a
	// channel (AWQ/GPTQ-style; the paper's §7 candidates).
	GroupWise
)

func (s Scheme) String() string {
	switch s {
	case PerTensor:
		return "per-tensor"
	case PerChannel:
		return "per-channel"
	case GroupWise:
		return "group-wise"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// GroupedTensor is a quantized tensor with fine-grained scales.
type GroupedTensor struct {
	Bits      int
	Scheme    Scheme
	GroupSize int // rows per group within a column (GroupWise only)
	Rows      int
	Cols      int
	Q         []int32
	// Scales and Zeros are indexed by group: col*groupsPerCol + rowGroup.
	Scales []float64
	Zeros  []float64
}

// groupsPerCol returns the number of row-groups per column.
func (t *GroupedTensor) groupsPerCol() int {
	if t.Scheme != GroupWise {
		return 1
	}
	return (t.Rows + t.GroupSize - 1) / t.GroupSize
}

func (t *GroupedTensor) groupIndex(r, c int) int {
	if t.Scheme != GroupWise {
		return c
	}
	return c*t.groupsPerCol() + r/t.GroupSize
}

// QuantizeGrouped quantizes w (row-major rows×cols, rows = input dim,
// cols = output channels) under the given scheme.
func QuantizeGrouped(w []float64, rows, cols, bits int, scheme Scheme, groupSize int, r Rounding, rng *rand.Rand) (*GroupedTensor, error) {
	if len(w) != rows*cols {
		return nil, fmt.Errorf("quant: data length %d != %d x %d", len(w), rows, cols)
	}
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("quant: unsupported bitwidth %d", bits)
	}
	if r == Stochastic && rng == nil {
		return nil, fmt.Errorf("quant: stochastic rounding requires a rand source")
	}
	if scheme == PerTensor {
		// Delegate and wrap, keeping one code path authoritative.
		pt, err := Quantize(w, rows, cols, bits, r, rng)
		if err != nil {
			return nil, err
		}
		return &GroupedTensor{
			Bits: bits, Scheme: PerTensor, Rows: rows, Cols: cols,
			Q: pt.Q, Scales: []float64{pt.Scale}, Zeros: []float64{pt.Zero},
		}, nil
	}
	if scheme == GroupWise {
		if groupSize < 1 {
			return nil, fmt.Errorf("quant: group size must be ≥1, got %d", groupSize)
		}
	} else {
		groupSize = rows
	}
	t := &GroupedTensor{
		Bits: bits, Scheme: scheme, GroupSize: groupSize,
		Rows: rows, Cols: cols, Q: make([]int32, len(w)),
	}
	if scheme == PerChannel {
		t.Scheme = PerChannel
	}
	nGroups := cols * t.groupsPerCol()
	t.Scales = make([]float64, nGroups)
	t.Zeros = make([]float64, nGroups)
	// Pass 1: ranges per group.
	mins := make([]float64, nGroups)
	maxs := make([]float64, nGroups)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	for rI := 0; rI < rows; rI++ {
		for c := 0; c < cols; c++ {
			g := t.groupIndex(rI, c)
			v := w[rI*cols+c]
			if v < mins[g] {
				mins[g] = v
			}
			if v > maxs[g] {
				maxs[g] = v
			}
		}
	}
	for g := range t.Scales {
		t.Scales[g] = ScaleFor(mins[g], maxs[g], bits)
		t.Zeros[g] = mins[g]
	}
	// Pass 2: quantize.
	maxLevel := int32(Levels(bits) - 1)
	for rI := 0; rI < rows; rI++ {
		for c := 0; c < cols; c++ {
			g := t.groupIndex(rI, c)
			x := (w[rI*cols+c] - t.Zeros[g]) / t.Scales[g]
			var q float64
			switch r {
			case Stochastic:
				fl := math.Floor(x)
				if rng.Float64() < x-fl {
					q = fl + 1
				} else {
					q = fl
				}
			default:
				q = math.Round(x)
			}
			qi := int32(q)
			if qi < 0 {
				qi = 0
			}
			if qi > maxLevel {
				qi = maxLevel
			}
			t.Q[rI*cols+c] = qi
		}
	}
	return t, nil
}

// Dequantize reconstructs the float weights.
func (t *GroupedTensor) Dequantize() []float64 {
	out := make([]float64, len(t.Q))
	if t.Scheme == PerTensor {
		for i, q := range t.Q {
			out[i] = float64(q)*t.Scales[0] + t.Zeros[0]
		}
		return out
	}
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			g := t.groupIndex(r, c)
			out[r*t.Cols+c] = float64(t.Q[r*t.Cols+c])*t.Scales[g] + t.Zeros[g]
		}
	}
	return out
}

// RoundTripGrouped quantizes and dequantizes under a scheme.
func RoundTripGrouped(w []float64, rows, cols, bits int, scheme Scheme, groupSize int, r Rounding, rng *rand.Rand) ([]float64, error) {
	t, err := QuantizeGrouped(w, rows, cols, bits, scheme, groupSize, r, rng)
	if err != nil {
		return nil, err
	}
	return t.Dequantize(), nil
}
