// Package profiler is the stand-in for the paper's on-GPU kernel profiler
// (§4.1): it produces per-layer execution-time samples for every
// (device, precision, phase, batch, sequence) point the latency cost model
// is fitted on.
//
// Ground truth comes from a roofline execution model — a layer runs at
// max(compute time, memory time) plus fixed launch overhead — which
// naturally yields the paper's two regimes: prefill is compute-bound
// (arithmetic intensity in the thousands) and decode is memory-bound
// (intensity ≈40–50). "Measured" samples add reproducible multiplicative
// noise so the regression in internal/costmodel has something nontrivial to
// fit, exactly like real profiling jitter.
package profiler

import (
	"fmt"
	"math/rand"

	"repro/internal/hardware"
	"repro/internal/model"
)

// KVBits is the precision of the KV cache (kept FP16 throughout, as in the
// paper's runtime).
const KVBits = 16

// Workload is one measurement point.
type Workload struct {
	Batch   int
	Prompt  int // prefill: tokens processed; decode: original prompt length
	Context int // decode only: past KV length
	Prefill bool
	Bits    int
	// KV is the KV-cache element precision; 0 means the default FP16
	// (the paper's runtime). 8 models INT8 KV quantization (extension).
	KV int
}

// KVBitsOf returns the effective KV precision of the workload.
func (w Workload) KVBitsOf() int {
	if w.KV == 0 {
		return KVBits
	}
	return w.KV
}

// Validate checks the workload is well-formed.
func (w Workload) Validate() error {
	if w.Batch <= 0 {
		return fmt.Errorf("profiler: batch must be positive, got %d", w.Batch)
	}
	if w.Prefill && w.Prompt <= 0 {
		return fmt.Errorf("profiler: prefill prompt must be positive, got %d", w.Prompt)
	}
	if !w.Prefill && w.Context < 0 {
		return fmt.Errorf("profiler: negative context %d", w.Context)
	}
	switch w.Bits {
	case 3, 4, 8, 16:
	default:
		return fmt.Errorf("profiler: unsupported bitwidth %d", w.Bits)
	}
	return nil
}

func (w Workload) shape() model.PhaseShape {
	return model.PhaseShape{Batch: w.Batch, Prompt: w.Prompt, Context: w.Context}
}

// LayerTime returns the ground-truth execution time in seconds of one
// decoder layer of cfg on gpu for workload w (roofline + launch overhead).
func LayerTime(gpu hardware.GPU, cfg model.Config, w Workload) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	flops := cfg.LayerFLOPs(w.shape(), w.Prefill)
	mops := cfg.LayerMOPs(w.shape(), w.Prefill, w.Bits, w.KVBitsOf())
	tc := flops / gpu.FLOPS(w.Bits)
	tm := mops / gpu.Bandwidth(w.Bits)
	t := tc
	if tm > t {
		t = tm
	}
	return t + gpu.LaunchOverheadUS*1e-6, nil
}

// EmbedTime returns the time of the embedding block (token+position lookup
// on entry, LM-head projection + softmax sampling on exit), which the paper
// accounts to the master/first stage. Lookups are bandwidth-bound; the
// LM-head projection is a [tokens, h] × [h, vocab] matmul.
func EmbedTime(gpu hardware.GPU, cfg model.Config, batch, tokens int) (float64, error) {
	if batch <= 0 || tokens <= 0 {
		return 0, fmt.Errorf("profiler: embed batch/tokens must be positive (%d, %d)", batch, tokens)
	}
	b := float64(batch)
	n := float64(tokens)
	h := float64(cfg.Hidden)
	v := float64(cfg.VocabSize)
	lookup := b * n * h * 2 / gpu.Bandwidth(16)
	headFLOPs := 2 * b * n * h * v
	head := headFLOPs / gpu.FLOPS(16)
	if bw := (b*n*h*2 + v*h*2) / gpu.Bandwidth(16); bw > head {
		head = bw
	}
	return lookup + head + 2*gpu.LaunchOverheadUS*1e-6, nil
}

// Sample returns a "measured" layer time: ground truth with reproducible
// multiplicative jitter (σ≈3%), as collected by the paper's profiler.
func Sample(gpu hardware.GPU, cfg model.Config, w Workload, rng *rand.Rand) (float64, error) {
	t, err := LayerTime(gpu, cfg, w)
	if err != nil {
		return 0, err
	}
	return t * (1 + 0.03*rng.NormFloat64()), nil
}

// Point is one profiled (workload, time) observation.
type Point struct {
	W    Workload
	Time float64
}

// ProfileGrid samples the standard profiling grid the paper describes:
// "common prompt lengths and batch sizes" for each phase and precision.
// Returns deterministic results for a given seed.
func ProfileGrid(gpu hardware.GPU, cfg model.Config, seed int64) ([]Point, error) {
	rng := rand.New(rand.NewSource(seed))
	prompts := []int{64, 128, 256, 512, 1024}
	batches := []int{1, 2, 4, 8, 16, 32}
	contexts := []int{128, 256, 512, 1024}
	var pts []Point
	for _, bits := range hardware.Bits {
		for _, b := range batches {
			for _, s := range prompts {
				w := Workload{Batch: b, Prompt: s, Prefill: true, Bits: bits}
				t, err := Sample(gpu, cfg, w, rng)
				if err != nil {
					return nil, err
				}
				pts = append(pts, Point{W: w, Time: t})
			}
			for _, c := range contexts {
				w := Workload{Batch: b, Context: c, Bits: bits}
				t, err := Sample(gpu, cfg, w, rng)
				if err != nil {
					return nil, err
				}
				pts = append(pts, Point{W: w, Time: t})
			}
		}
	}
	return pts, nil
}
