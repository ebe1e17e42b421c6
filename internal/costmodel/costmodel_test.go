package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profiler"
)

func validInput() MemoryInput {
	bits := make([]int, 12)
	for i := range bits {
		bits[i] = 16
	}
	return MemoryInput{
		Cfg: model.OPT13B, LayerBits: bits, GlobalBatch: 32,
		MaxSeq: 612, MicroBatch: 8, PromptLen: 512, First: true, Last: false,
	}
}

func TestMemoryValidation(t *testing.T) {
	in := validInput()
	in.LayerBits = nil
	if _, err := StageMemory(in); err == nil {
		t.Error("expected empty-layer error")
	}
	in = validInput()
	in.LayerBits[0] = 7
	if _, err := StageMemory(in); err == nil {
		t.Error("expected bitwidth error")
	}
	in = validInput()
	in.GlobalBatch = 0
	if _, err := StageMemory(in); err == nil {
		t.Error("expected workload error")
	}
}

func TestMemoryMatchesAnalyticGroundTruth(t *testing.T) {
	// Fig 7: "the error of the memory cost model is almost negligible".
	// Our ground truth is the same accounting the runtime uses, so the
	// check here is internal consistency: weights = Σ LayerWeightBytes,
	// KV = L · KVBytesPerLayer.
	in := validInput()
	br, err := StageMemory(in)
	if err != nil {
		t.Fatal(err)
	}
	wantW := float64(len(in.LayerBits)) * in.Cfg.LayerWeightBytes(16)
	if math.Abs(br.Weights-wantW) > 1 {
		t.Errorf("weights %.0f want %.0f", br.Weights, wantW)
	}
	wantKV := float64(len(in.LayerBits)) * in.Cfg.KVBytesPerLayer(32, 612, 16)
	if math.Abs(br.KVCache-wantKV) > 1 {
		t.Errorf("kv %.0f want %.0f", br.KVCache, wantKV)
	}
	if br.Total != br.Weights+br.KVCache+br.Temp+br.Embed {
		t.Error("total is not the sum of parts")
	}
	if br.Embed <= 0 {
		t.Error("first stage should carry embedding memory")
	}
}

func TestQuantizationShrinksWeights(t *testing.T) {
	in := validInput()
	full, _ := StageMemory(in)
	for i := range in.LayerBits {
		in.LayerBits[i] = 4
	}
	quant, _ := StageMemory(in)
	r := full.Weights / quant.Weights
	if r < 3.5 || r > 4.5 {
		t.Errorf("4-bit weights should be ≈4x smaller, got %.2fx", r)
	}
	// KV cache unchanged by weight quantization.
	if quant.KVCache != full.KVCache {
		t.Error("KV cache should not depend on weight bits")
	}
}

func TestMicroBatchReducesPeakTemp(t *testing.T) {
	// Paper cluster-1 result: smaller prefill micro-batches reduce peak
	// temporary memory enough to fit the INT8 model.
	in := validInput()
	in.MicroBatch = 32
	big, _ := StageMemory(in)
	in.MicroBatch = 4
	small, _ := StageMemory(in)
	if small.Temp >= big.Temp {
		t.Errorf("temp should shrink with micro-batch: %.0f vs %.0f", small.Temp, big.Temp)
	}
	if big.Temp/small.Temp < 4 {
		t.Errorf("temp should scale roughly with micro-batch (got %.1fx for 8x)", big.Temp/small.Temp)
	}
}

func fitModelForTest(t *testing.T, gpu hardware.GPU, cfg model.Config) *LatencyModel {
	t.Helper()
	pts, err := profiler.ProfileGrid(gpu, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitLatency(gpu, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLatencyFidelityUnder6Percent(t *testing.T) {
	// Fig 7: "the average error of the latency cost model is less than 6%".
	// Evaluate on 50 unseen workloads per device like the paper (batch
	// sizes 3/5/7, past lengths 384/768, random precisions).
	rng := rand.New(rand.NewSource(99))
	for _, gpu := range []hardware.GPU{hardware.T4, hardware.V100, hardware.A100} {
		m := fitModelForTest(t, gpu, model.OPT13B)
		var unseen []profiler.Point
		batches := []int{3, 5, 7}
		pasts := []int{384, 768}
		for i := 0; i < 50; i++ {
			bits := hardware.Bits[rng.Intn(4)]
			b := batches[rng.Intn(3)]
			var w profiler.Workload
			if i%2 == 0 {
				w = profiler.Workload{Batch: b, Prompt: 128 + rng.Intn(512), Prefill: true, Bits: bits}
			} else {
				w = profiler.Workload{Batch: b, Context: pasts[rng.Intn(2)], Bits: bits}
			}
			tm, err := profiler.LayerTime(gpu, model.OPT13B, w)
			if err != nil {
				t.Fatal(err)
			}
			unseen = append(unseen, profiler.Point{W: w, Time: tm})
		}
		mre, err := m.MeanRelativeError(unseen)
		if err != nil {
			t.Fatal(err)
		}
		if mre > 0.12 {
			t.Errorf("%s: latency model mean relative error %.1f%% too high (paper <6%%)", gpu.Name, mre*100)
		}
	}
}

func TestPredictPreservesDeviceOrdering(t *testing.T) {
	// The fitted model must preserve the cross-device ordering the planner
	// relies on: A100 < V100 < P100 for FP16 prefill.
	cfg := model.OPT30B
	w := profiler.Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	var times []float64
	for _, gpu := range []hardware.GPU{hardware.A100, hardware.V100, hardware.P100} {
		m := fitModelForTest(t, gpu, cfg)
		tm, err := m.PredictLayer(w)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, tm)
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("device ordering lost in fit: A100=%.4g V100=%.4g P100=%.4g", times[0], times[1], times[2])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitLatency(hardware.T4, model.OPT13B, nil); err == nil {
		t.Error("expected no-points error")
	}
	pts := []profiler.Point{{W: profiler.Workload{Batch: 1, Prompt: 8, Prefill: true, Bits: 16}, Time: 1}}
	if _, err := FitLatency(hardware.T4, model.OPT13B, pts); err == nil {
		t.Error("expected too-few-samples error")
	}
	m := fitModelForTest(t, hardware.T4, model.OPT13B)
	if _, err := m.PredictLayer(profiler.Workload{Batch: 1, Prompt: 8, Prefill: true, Bits: 5}); err == nil {
		t.Error("expected validation error for bits=5")
	}
}
