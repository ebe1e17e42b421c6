// Package floats holds the epsilon comparison helpers the floateq analyzer
// (internal/analysis) requires wherever non-test code would otherwise
// compare floating-point values with == or !=. It is a leaf package —
// anything from internal/quant up to internal/core may import it.
package floats

import "math"

// DefaultTol is the combined absolute/relative tolerance used by
// AlmostEqual: loose enough to absorb the rounding of cost-model sums,
// tight enough to distinguish any two distinct plan objectives.
const DefaultTol = 1e-9

// AlmostEqual reports a ≈ b under DefaultTol.
func AlmostEqual(a, b float64) bool { return EqTol(a, b, DefaultTol) }

// EqTol reports |a−b| ≤ tol·max(1, |a|, |b|): absolute near zero,
// relative for large magnitudes. Infinities compare equal only to
// themselves; NaN compares equal to nothing.
func EqTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b //llmpq:allow(floateq): infinities are exact
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}

// Zero reports x ≈ 0 under the absolute tolerance tol.
func Zero(x, tol float64) bool { return math.Abs(x) <= tol }
