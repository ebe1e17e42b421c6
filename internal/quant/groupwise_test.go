package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func outlierWeights(rows, cols int, rng *rand.Rand) []float64 {
	w := make([]float64, rows*cols)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.02
	}
	// A few large outliers, concentrated in one column — the structure
	// that hurts per-tensor scaling most.
	for k := 0; k < rows/16+1; k++ {
		w[rng.Intn(rows)*cols] *= 12
	}
	return w
}

// schemeErrorStats measures elementwise round-trip error under a scheme.
func schemeErrorStats(w []float64, rows, cols, bits int, scheme Scheme, groupSize int) (errorStats, error) {
	t, err := QuantizeGrouped(w, rows, cols, bits, scheme, groupSize, Deterministic, nil)
	if err != nil {
		return errorStats{}, err
	}
	deq := t.Dequantize()
	var sum, sumSq, maxAbs, maxScale float64
	for i := range w {
		e := deq[i] - w[i]
		sum += e
		sumSq += e * e
		if a := math.Abs(e); a > maxAbs {
			maxAbs = a
		}
	}
	for _, s := range t.Scales {
		if s > maxScale {
			maxScale = s
		}
	}
	n := float64(len(w))
	mean := sum / n
	return errorStats{MeanErr: mean, VarErr: sumSq/n - mean*mean, MaxAbs: maxAbs, Scale: maxScale}, nil
}

func TestFinerSchemesReduceError(t *testing.T) {
	// §7: AWQ/SpQR-style fine-grained scaling recovers accuracy. With
	// outliers, per-channel must beat per-tensor, and group-wise must beat
	// per-channel.
	rng := rand.New(rand.NewSource(1))
	w := outlierWeights(256, 64, rng)
	pt, err := schemeErrorStats(w, 256, 64, 4, PerTensor, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := schemeErrorStats(w, 256, 64, 4, PerChannel, 0)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := schemeErrorStats(w, 256, 64, 4, GroupWise, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pc.VarErr >= pt.VarErr {
		t.Errorf("per-channel var %.3g should beat per-tensor %.3g", pc.VarErr, pt.VarErr)
	}
	if gw.VarErr >= pc.VarErr {
		t.Errorf("group-wise var %.3g should beat per-channel %.3g", gw.VarErr, pc.VarErr)
	}
}

func TestPerTensorMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := outlierWeights(64, 32, rng)
	base, err := RoundTrip(w, 64, 32, 4, Deterministic, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaGrouped, err := RoundTripGrouped(w, 64, 32, 4, PerTensor, 0, Deterministic, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != viaGrouped[i] {
			t.Fatal("PerTensor grouped path must match the baseline quantizer exactly")
		}
	}
}

func TestGroupIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := outlierWeights(64, 8, rng)
	tq, err := QuantizeGrouped(w, 64, 8, 4, GroupWise, 16, Deterministic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := tq.groupsPerCol(); g != 4 {
		t.Errorf("64 rows / group 16 = %d groups, want 4", g)
	}
	if len(tq.Scales) != 8*4 {
		t.Errorf("%d scales, want 32", len(tq.Scales))
	}
	// Uneven division rounds up.
	tq2, err := QuantizeGrouped(w, 64, 8, 4, GroupWise, 48, Deterministic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := tq2.groupsPerCol(); g != 2 {
		t.Errorf("ceil(64/48) = %d, want 2", g)
	}
}

func TestMetadataCostGrowsWithFineness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := outlierWeights(256, 64, rng)
	var prev float64 = -1
	for _, tc := range []struct {
		scheme Scheme
		group  int
	}{{PerTensor, 0}, {PerChannel, 0}, {GroupWise, 64}, {GroupWise, 16}} {
		tq, err := QuantizeGrouped(w, 256, 64, 4, tc.scheme, tc.group, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		mb := float64(len(tq.Scales)+len(tq.Zeros)) * 2
		if mb <= prev {
			t.Errorf("%v group=%d: metadata %.0fB not greater than coarser scheme %.0fB", tc.scheme, tc.group, mb, prev)
		}
		prev = mb
	}
}

func TestGroupedErrorBound(t *testing.T) {
	// Error must stay within each group's s/2 under deterministic rounding.
	rng := rand.New(rand.NewSource(5))
	w := outlierWeights(128, 16, rng)
	for _, scheme := range []Scheme{PerChannel, GroupWise} {
		tq, err := QuantizeGrouped(w, 128, 16, 4, scheme, 32, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		deq := tq.Dequantize()
		for r := 0; r < 128; r++ {
			for c := 0; c < 16; c++ {
				g := tq.groupIndex(r, c)
				e := math.Abs(deq[r*16+c] - w[r*16+c])
				if e > tq.Scales[g]/2+1e-12 {
					t.Fatalf("%v: error %.4g exceeds group scale/2 %.4g at (%d,%d)", scheme, e, tq.Scales[g]/2, r, c)
				}
			}
		}
	}
}

func TestGroupedValidation(t *testing.T) {
	if _, err := QuantizeGrouped([]float64{1, 2}, 2, 2, 4, GroupWise, 16, Deterministic, nil); err == nil {
		t.Error("expected size mismatch error")
	}
	if _, err := QuantizeGrouped([]float64{1, 2, 3, 4}, 2, 2, 1, GroupWise, 16, Deterministic, nil); err == nil {
		t.Error("expected bits error")
	}
	if _, err := QuantizeGrouped([]float64{1, 2, 3, 4}, 2, 2, 4, GroupWise, 0, Deterministic, nil); err == nil {
		t.Error("expected group size error")
	}
	if _, err := QuantizeGrouped([]float64{1, 2, 3, 4}, 2, 2, 4, GroupWise, 2, Stochastic, nil); err == nil {
		t.Error("expected missing rng error")
	}
}

func TestGroupedQuantPropertyLevelsInRange(t *testing.T) {
	err := quick.Check(func(seed int64, schemeSel, bitsSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := outlierWeights(32, 8, rng)
		scheme := []Scheme{PerTensor, PerChannel, GroupWise}[schemeSel%3]
		bits := []int{3, 4, 8}[bitsSel%3]
		tq, err := QuantizeGrouped(w, 32, 8, bits, scheme, 8, Deterministic, nil)
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
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
