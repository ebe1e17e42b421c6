package assigner

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profiler"
)

// LayerTimer supplies per-layer execution times. The assigner accepts
// either the profiler's ground truth (the paper's
// --use_profiler_prediction) or a fitted latency cost model (--fit).
type LayerTimer interface {
	Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error)
}

// ProfilerTimer uses the analytic roofline ground truth.
type ProfilerTimer struct{}

// Layer implements LayerTimer.
func (ProfilerTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	return profiler.LayerTime(gpu, cfg, w)
}

// FittedTimer uses pre-fitted latency cost models, keyed by GPU name.
type FittedTimer struct {
	Models map[string]*costmodel.LatencyModel
}

// Layer implements LayerTimer.
func (f FittedTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	m, ok := f.Models[gpu.Name]
	if !ok {
		return 0, fmt.Errorf("assigner: no fitted latency model for %s", gpu.Name)
	}
	return m.PredictLayer(w)
}

// Tables caches every quantity the inner solvers need for one
// (spec, prefill micro-batch) pair: per-device per-bit group times, memory
// per group, communication and embedding overheads, and device capacities.
type Tables struct {
	Spec      *Spec
	PrefillMB int
	DecodeMB  int

	// TPre[d][bitIdx] / TDec[d][bitIdx]: execution time of ONE layer group
	// on device d (cluster device index) at Bits[bitIdx], for one
	// prefill/decode micro-batch.
	TPre [][]float64
	TDec [][]float64
	// GroupMem[bitIdx]: bytes one layer group occupies (weights at bit +
	// KV reservation for the full global batch).
	GroupMem []float64
	// Capacity[d]: planner-visible memory of device d.
	Capacity []float64
	// TempMem[d]: peak temporary memory on any stage (depends on prefill
	// micro-batch, not on the device).
	TempMem float64
	// EmbedMem / HeadMem: extra bytes on the first / last pipeline stage.
	EmbedMem float64
	HeadMem  float64
	// EmbedPre / EmbedDec: master-engine embedding + LM-head time added to
	// the first stage, per micro-batch.
	EmbedPre float64
	EmbedDec float64
	// CommPre[d][e] / CommDec[d][e]: time to ship one micro-batch's
	// activations from device d to device e.
	CommPre [][]float64
	CommDec [][]float64
}

// BuildTables computes the cost tables for a prefill micro-batch size.
func BuildTables(s *Spec, timer LayerTimer, prefillMB int) (*Tables, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if prefillMB <= 0 || prefillMB > s.Work.GlobalBatch {
		return nil, fmt.Errorf("assigner: prefill micro-batch %d out of [1,%d]", prefillMB, s.Work.GlobalBatch)
	}
	n := s.Cluster.NumDevices()
	g := s.groupSize()
	decodeMB := s.decodeMicroBatch()
	t := &Tables{
		Spec: s, PrefillMB: prefillMB, DecodeMB: decodeMB,
		TPre: make([][]float64, n), TDec: make([][]float64, n),
		GroupMem: make([]float64, len(s.Bits)),
		Capacity: make([]float64, n),
		CommPre:  make([][]float64, n), CommDec: make([][]float64, n),
	}
	maxSeq := s.Work.Prompt + s.Work.Generate
	for bi, bits := range s.Bits {
		t.GroupMem[bi] = float64(g) * (s.Cfg.LayerWeightBytes(bits) +
			s.Cfg.KVBytesPerLayer(s.Work.GlobalBatch, maxSeq, s.kvBits()))
	}
	for d, dev := range s.Cluster.Devices {
		t.Capacity[d] = dev.GPU.MemoryBytes() * (1 - memoryReserve)
		var err error
		if t.TPre[d], err = buildPrefillRow(s, timer, dev.GPU, prefillMB); err != nil {
			return nil, err
		}
		if t.TDec[d], err = buildDecodeRow(s, timer, dev.GPU, decodeMB); err != nil {
			return nil, err
		}
	}
	// Peak temporary memory (same accounting as costmodel.StageMemory).
	br, err := costmodel.StageMemory(costmodel.MemoryInput{
		Cfg: s.Cfg, LayerBits: []int{16}, GlobalBatch: s.Work.GlobalBatch,
		MaxSeq: maxSeq, MicroBatch: prefillMB, PromptLen: s.Work.Prompt,
	})
	if err != nil {
		return nil, err
	}
	t.TempMem = br.Temp
	t.EmbedMem = s.Cfg.EmbedBytes()
	t.HeadMem = s.Cfg.LMHeadBytes()
	if s.Cfg.TiedEmbed {
		t.HeadMem = float64(s.Cfg.VocabSize) * float64(s.Cfg.Hidden) * 2
	}
	// Master engine pre/post-processing time (first stage).
	masterGPU := s.Cluster.Devices[0].GPU
	pre, err := profiler.EmbedTime(masterGPU, s.Cfg, prefillMB, s.Work.Prompt)
	if err != nil {
		return nil, err
	}
	dec, err := profiler.EmbedTime(masterGPU, s.Cfg, decodeMB, 1)
	if err != nil {
		return nil, err
	}
	t.EmbedPre = pre
	t.EmbedDec = dec
	// Inter-device activation transfer times.
	h := float64(s.Cfg.Hidden)
	preBytes := float64(prefillMB) * float64(s.Work.Prompt) * h * 2
	decBytes := float64(decodeMB) * h * 2
	for d := range s.Cluster.Devices {
		t.CommPre[d] = make([]float64, n)
		t.CommDec[d] = make([]float64, n)
		for e := range s.Cluster.Devices {
			if d == e {
				continue
			}
			link := s.Cluster.LinkBetween(s.Cluster.Devices[d], s.Cluster.Devices[e])
			t.CommPre[d][e] = link.TransferTime(preBytes)
			t.CommDec[d][e] = link.TransferTime(decBytes)
		}
	}
	return t, nil
}

// buildPrefillRow computes one device type's per-bit prefill group times.
func buildPrefillRow(s *Spec, timer LayerTimer, gpu hardware.GPU, prefillMB int) ([]float64, error) {
	g := s.groupSize()
	row := make([]float64, len(s.Bits))
	for bi, bits := range s.Bits {
		pre, err := timer.Layer(gpu, s.Cfg, profiler.Workload{
			Batch: prefillMB, Prompt: s.Work.Prompt, Prefill: true, Bits: bits, KV: s.kvBits(),
		})
		if err != nil {
			return nil, err
		}
		row[bi] = pre * float64(g)
	}
	return row, nil
}

// buildDecodeRow computes one device type's per-bit decode group times at
// the representative mid-generation context.
func buildDecodeRow(s *Spec, timer LayerTimer, gpu hardware.GPU, decodeMB int) ([]float64, error) {
	g := s.groupSize()
	ctx := s.Work.Prompt + s.Work.Generate/2
	row := make([]float64, len(s.Bits))
	for bi, bits := range s.Bits {
		dec, err := timer.Layer(gpu, s.Cfg, profiler.Workload{
			Batch: decodeMB, Prompt: s.Work.Prompt, Context: ctx, Bits: bits, KV: s.kvBits(),
		})
		if err != nil {
			return nil, err
		}
		row[bi] = dec * float64(g)
	}
	return row, nil
}

// rounds returns the pipeline model's micro-batch rounds: k_p prefill
// micro-batches per global batch, and (n−1)·k_d decode rounds after the
// first token.
func (t *Tables) rounds() (prefill, decode int) {
	s := t.Spec
	kd := (s.Work.GlobalBatch + t.DecodeMB - 1) / t.DecodeMB
	return (s.Work.GlobalBatch + t.PrefillMB - 1) / t.PrefillMB, (s.Work.Generate - 1) * kd
}

// bitIndexIn returns the index of b in bits, or -1.
func bitIndexIn(bits []int, b int) int {
	for i, v := range bits {
		if v == b {
			return i
		}
	}
	return -1
}
