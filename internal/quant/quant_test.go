package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gaussian(n int, rng *rand.Rand, sigma float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64() * sigma
	}
	return w
}

// errorStats summarizes elementwise quantization error ŵ − w.
type errorStats struct {
	MeanErr float64
	VarErr  float64
	MaxAbs  float64
	Scale   float64
}

// measureError quantizes w and reports error statistics, to validate
// Theorem 1's rounding-variance terms: deterministic rounding has
// per-element error variance ≤ s²/4 (error in [−s/2, s/2]); stochastic
// rounding is unbiased with variance ≤ s²/4, and for a uniformly
// distributed fractional part E[var] = s²/6.
func measureError(w []float64, rows, cols, bits int, r Rounding, rng *rand.Rand) (errorStats, error) {
	t, err := Quantize(w, rows, cols, bits, r, rng)
	if err != nil {
		return errorStats{}, err
	}
	deq := t.Dequantize()
	var sum, sumSq, maxAbs float64
	for i := range w {
		e := deq[i] - w[i]
		sum += e
		sumSq += e * e
		if a := math.Abs(e); a > maxAbs {
			maxAbs = a
		}
	}
	n := float64(len(w))
	mean := sum / n
	return errorStats{
		MeanErr: mean,
		VarErr:  sumSq/n - mean*mean,
		MaxAbs:  maxAbs,
		Scale:   t.Scale,
	}, nil
}

// outputVarianceBound returns the Theorem 1 upper bound on the *added*
// variance of a linear operator's output W·X after weight-only quantization:
//
//	deterministic: D_W · s_W² · (1/4) · Var[X]
//	stochastic:    D_W · s_W² · (1/6) · (E[X]² + Var[X])
//
// where D_W is the weight inner dimension and s_W the scale.
func outputVarianceBound(dW int, scale, meanX, varX float64, r Rounding) float64 {
	d := float64(dW)
	switch r {
	case Stochastic:
		return d * scale * scale / 6 * (meanX*meanX + varX)
	default:
		return d * scale * scale / 4 * varX
	}
}

func TestRoundTripErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := gaussian(4096, rng, 0.02)
	for _, bits := range []int{3, 4, 8, 16} {
		st, err := measureError(w, 64, 64, bits, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic rounding error per element is within s/2 (clamping
		// can only pull values toward range, which Gaussian data respects).
		if st.MaxAbs > st.Scale/2+1e-12 {
			t.Errorf("bits=%d: max |err| %.3g > s/2 = %.3g", bits, st.MaxAbs, st.Scale/2)
		}
	}
}

func TestHigherBitsLowerError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := gaussian(8192, rng, 0.02)
	prev := math.Inf(1)
	for _, bits := range []int{3, 4, 8, 16} {
		st, err := measureError(w, 128, 64, bits, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.VarErr >= prev {
			t.Errorf("bits=%d: error variance %.3g not lower than %d-bit", bits, st.VarErr, bits/2)
		}
		prev = st.VarErr
	}
}

func TestTheorem1DeterministicVarianceBound(t *testing.T) {
	// Empirical per-element error variance must respect s²/4; for a smooth
	// distribution it concentrates near s²/12 (uniform rounding error).
	rng := rand.New(rand.NewSource(3))
	w := gaussian(1<<15, rng, 0.05)
	for _, bits := range []int{3, 4, 8} {
		st, err := measureError(w, 1<<9, 1<<6, bits, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := st.Scale * st.Scale / 4
		if st.VarErr > bound {
			t.Errorf("bits=%d: var %.3g exceeds deterministic bound s²/4=%.3g", bits, st.VarErr, bound)
		}
		if bits <= 4 {
			continue // coarse grids interact with the Gaussian shape
		}
		uniform := st.Scale * st.Scale / 12
		if st.VarErr < uniform/3 || st.VarErr > uniform*3 {
			t.Errorf("bits=%d: var %.3g far from s²/12=%.3g", bits, st.VarErr, uniform)
		}
	}
}

func TestTheorem1StochasticUnbiasedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := gaussian(1<<15, rng, 0.05)
	for _, bits := range []int{4, 8} {
		st, err := measureError(w, 1<<9, 1<<6, bits, Stochastic, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Unbiased: mean error ≈ 0 relative to the scale.
		if math.Abs(st.MeanErr) > st.Scale*0.02 {
			t.Errorf("bits=%d: stochastic mean err %.3g not ≈0 (scale %.3g)", bits, st.MeanErr, st.Scale)
		}
		// Var[err] ≤ s²/4 always; for uniform fractional part it is s²/6.
		bound := st.Scale * st.Scale / 4
		if st.VarErr > bound {
			t.Errorf("bits=%d: stochastic var %.3g exceeds s²/4=%.3g", bits, st.VarErr, bound)
		}
	}
}

func TestStochasticNoisierThanDeterministic(t *testing.T) {
	// Theorem 1: the stochastic variance term (s²/6)(E[X]²+Var[X]) exceeds
	// the deterministic one (s²/4)Var[X] whenever E[X]² > Var[X]/2; for the
	// raw rounding error the stochastic rule is always at least as noisy.
	rng := rand.New(rand.NewSource(5))
	w := gaussian(1<<14, rng, 0.05)
	for _, bits := range []int{4, 8} {
		det, _ := measureError(w, 1<<8, 1<<6, bits, Deterministic, nil)
		sto, _ := measureError(w, 1<<8, 1<<6, bits, Stochastic, rng)
		if sto.VarErr < det.VarErr {
			t.Errorf("bits=%d: stochastic var %.3g < deterministic %.3g", bits, sto.VarErr, det.VarErr)
		}
	}
}

func TestOutputVarianceBoundFormula(t *testing.T) {
	d, s := 1024, 0.01
	varX, meanX := 2.0, 3.0
	det := outputVarianceBound(d, s, meanX, varX, Deterministic)
	sto := outputVarianceBound(d, s, meanX, varX, Stochastic)
	wantDet := float64(d) * s * s / 4 * varX
	wantSto := float64(d) * s * s / 6 * (meanX*meanX + varX)
	if math.Abs(det-wantDet) > 1e-12 {
		t.Errorf("deterministic bound %.6g want %.6g", det, wantDet)
	}
	if math.Abs(sto-wantSto) > 1e-12 {
		t.Errorf("stochastic bound %.6g want %.6g", sto, wantSto)
	}
}

func TestOutputVarianceBoundEmpirical(t *testing.T) {
	// Monte-Carlo check of Theorem 1: quantize W, multiply by random X, and
	// compare Var[(Ŵ−W)X] against the bound.
	rng := rand.New(rand.NewSource(6))
	rows, cols := 64, 64
	w := gaussian(rows*cols, rng, 0.05)
	for _, r := range []Rounding{Deterministic, Stochastic} {
		tq, err := Quantize(w, rows, cols, 4, r, rng)
		if err != nil {
			t.Fatal(err)
		}
		deq := tq.Dequantize()
		meanX, varX := 0.5, 1.0
		trials := 2000
		var sum, sumSq float64
		for n := 0; n < trials; n++ {
			x := make([]float64, cols)
			for i := range x {
				x[i] = meanX + rng.NormFloat64()*math.Sqrt(varX)
			}
			row := rng.Intn(rows)
			var y float64
			for j := 0; j < cols; j++ {
				y += (deq[row*cols+j] - w[row*cols+j]) * x[j]
			}
			sum += y
			sumSq += y * y
		}
		m := sum / float64(trials)
		v := sumSq/float64(trials) - m*m
		bound := outputVarianceBound(cols, tq.Scale, meanX, varX, r)
		if v > bound*1.35 { // MC slack
			t.Errorf("%v: empirical added var %.4g exceeds Theorem 1 bound %.4g", r, v, bound)
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	if _, err := Quantize([]float64{1, 2, 3}, 2, 2, 4, Deterministic, nil); err == nil {
		t.Error("expected size mismatch error")
	}
	if _, err := Quantize([]float64{1, 2}, 1, 2, 1, Deterministic, nil); err == nil {
		t.Error("expected unsupported bitwidth error")
	}
	if _, err := Quantize([]float64{1, 2}, 1, 2, 4, Stochastic, nil); err == nil {
		t.Error("expected missing rng error")
	}
}

func TestConstantTensor(t *testing.T) {
	w := []float64{0.5, 0.5, 0.5, 0.5}
	deq, err := RoundTrip(w, 2, 2, 4, Deterministic, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range deq {
		if math.Abs(v-0.5) > 1e-12 {
			t.Errorf("constant tensor should round-trip exactly, got %v", deq)
		}
	}
}

func TestQuantizePropertyLevelsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	err := quick.Check(func(seed int64, bits8 uint8) bool {
		bits := []int{3, 4, 8}[int(bits8)%3]
		r := rand.New(rand.NewSource(seed))
		w := gaussian(256, r, 0.1)
		tq, err := Quantize(w, 16, 16, bits, Stochastic, rng)
		if err != nil {
			return false
		}
		maxL := int32(Levels(bits) - 1)
		for _, q := range tq.Q {
			if q < 0 || q > maxL {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestScaleShrinksWithBits(t *testing.T) {
	s3 := ScaleFor(-1, 1, 3)
	s8 := ScaleFor(-1, 1, 8)
	if s8 >= s3 {
		t.Errorf("scale should shrink with bits: s3=%.4g s8=%.4g", s3, s8)
	}
	if ScaleFor(2, 2, 4) != 1 {
		t.Error("degenerate range should produce scale 1")
	}
}
