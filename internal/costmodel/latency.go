package costmodel

import (
	"fmt"
	"math"

	"repro/internal/core/floats"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profiler"
)

// phaseKey identifies one fitted regression.
type phaseKey struct {
	bits    int
	prefill bool
}

// regression is t ≈ α·FLOPs + β·MOPs + γ — the paper's observation that
// GEMM (>80% of latency) scales with FLOPs and MOPs while the remaining
// operators scale with MOPs (§4.1).
type regression struct {
	alpha, beta, gamma float64
}

func (r regression) predict(flops, mops float64) float64 {
	t := r.alpha*flops + r.beta*mops + r.gamma
	if t < 0 {
		t = 0
	}
	return t
}

// LatencyModel predicts per-layer execution time for one device type from
// profiled samples.
type LatencyModel struct {
	GPU hardware.GPU
	Cfg model.Config
	fit map[phaseKey]regression
}

// FitLatency fits the latency cost model from profiler points.
func FitLatency(gpu hardware.GPU, cfg model.Config, pts []profiler.Point) (*LatencyModel, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("costmodel: no profiler points")
	}
	groups := map[phaseKey][]profiler.Point{}
	for _, p := range pts {
		k := phaseKey{bits: p.W.Bits, prefill: p.W.Prefill}
		groups[k] = append(groups[k], p)
	}
	m := &LatencyModel{GPU: gpu, Cfg: cfg, fit: make(map[phaseKey]regression)}
	for k, g := range groups {
		if len(g) < 3 {
			return nil, fmt.Errorf("costmodel: %d samples for %+v, need ≥3", len(g), k)
		}
		reg, err := leastSquares(cfg, g)
		if err != nil {
			return nil, fmt.Errorf("costmodel: fit %+v: %w", k, err)
		}
		m.fit[k] = reg
	}
	return m, nil
}

func features(cfg model.Config, w profiler.Workload) (flops, mops float64) {
	sh := model.PhaseShape{Batch: w.Batch, Prompt: w.Prompt, Context: w.Context}
	return cfg.LayerFLOPs(sh, w.Prefill), cfg.LayerMOPs(sh, w.Prefill, w.Bits, w.KVBitsOf())
}

// leastSquares solves the 3-parameter normal equations.
func leastSquares(cfg model.Config, pts []profiler.Point) (regression, error) {
	// Normalize features to comparable magnitude for conditioning.
	var fScale, mScale float64
	for _, p := range pts {
		f, mo := features(cfg, p.W)
		if f > fScale {
			fScale = f
		}
		if mo > mScale {
			mScale = mo
		}
	}
	if fScale == 0 || mScale == 0 {
		return regression{}, fmt.Errorf("degenerate features")
	}
	var a [3][3]float64
	var rhs [3]float64
	for _, p := range pts {
		f, mo := features(cfg, p.W)
		x := [3]float64{f / fScale, mo / mScale, 1}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += x[i] * x[j]
			}
			rhs[i] += x[i] * p.Time
		}
	}
	sol, err := solve3(a, rhs)
	if err != nil {
		return regression{}, err
	}
	return regression{alpha: sol[0] / fScale, beta: sol[1] / mScale, gamma: sol[2]}, nil
}

func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	// Gaussian elimination with partial pivoting.
	m := [3][4]float64{}
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if floats.Zero(m[piv][col], 1e-14) {
			return [3]float64{}, fmt.Errorf("singular normal equations")
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = m[i][3] / m[i][i]
	}
	return x, nil
}

// PredictLayer returns the predicted execution time of one decoder layer.
func (m *LatencyModel) PredictLayer(w profiler.Workload) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	reg, ok := m.fit[phaseKey{bits: w.Bits, prefill: w.Prefill}]
	if !ok {
		return 0, fmt.Errorf("costmodel: no fit for bits=%d prefill=%v", w.Bits, w.Prefill)
	}
	f, mo := features(m.Cfg, w)
	return reg.predict(f, mo), nil
}

// MeanRelativeError evaluates the fitted model on held-out points.
func (m *LatencyModel) MeanRelativeError(pts []profiler.Point) (float64, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("costmodel: no evaluation points")
	}
	var sum float64
	for _, p := range pts {
		pred, err := m.PredictLayer(p.W)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(pred-p.Time) / p.Time
	}
	return sum / float64(len(pts)), nil
}
