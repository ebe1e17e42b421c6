package profiler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
)

// arithmeticIntensity returns FLOPs/byte for the workload — the quantity
// the paper uses to show prefill is compute-bound and decode memory-bound.
func arithmeticIntensity(cfg model.Config, w Workload) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	return cfg.LayerFLOPs(w.shape(), w.Prefill) / cfg.LayerMOPs(w.shape(), w.Prefill, w.Bits, w.KVBitsOf()), nil
}

func TestWorkloadValidate(t *testing.T) {
	bad := []Workload{
		{Batch: 0, Prompt: 512, Prefill: true, Bits: 16},
		{Batch: 8, Prompt: 0, Prefill: true, Bits: 16},
		{Batch: 8, Context: -1, Bits: 16},
		{Batch: 8, Prompt: 512, Prefill: true, Bits: 5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, w)
		}
	}
	good := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPrefillComputeBoundDecodeMemoryBound(t *testing.T) {
	pre := Workload{Batch: 32, Prompt: 512, Prefill: true, Bits: 16}
	dec := Workload{Batch: 32, Prompt: 512, Context: 512, Bits: 16}
	aiPre, err := arithmeticIntensity(model.OPT30B, pre)
	if err != nil {
		t.Fatal(err)
	}
	aiDec, err := arithmeticIntensity(model.OPT30B, dec)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §4.1: V100 machine balance is 139 FLOPs/byte. Prefill must sit
	// far above it (compute-bound), decode far below (memory-bound).
	balance := hardware.V100.FLOPS(16) / hardware.V100.Bandwidth(16)
	if aiPre < balance {
		t.Errorf("prefill AI %.0f below machine balance %.0f", aiPre, balance)
	}
	if aiDec > balance {
		t.Errorf("decode AI %.0f above machine balance %.0f", aiDec, balance)
	}
}

func TestPhaseDependentDeviceRatioFig3(t *testing.T) {
	// Fig 3's point: the P100/V100 time ratio differs sharply by phase
	// (annotated 14.53x for FP16 prefill, near-1x for decode), so a
	// partition tuned on one phase is wrong for the other.
	pre := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	dec := Workload{Batch: 8, Prompt: 512, Context: 512, Bits: 16}
	pPre, err := LayerTime(hardware.P100, model.OPT30B, pre)
	if err != nil {
		t.Fatal(err)
	}
	vPre, _ := LayerTime(hardware.V100, model.OPT30B, pre)
	pDec, _ := LayerTime(hardware.P100, model.OPT30B, dec)
	vDec, _ := LayerTime(hardware.V100, model.OPT30B, dec)
	rPre := pPre / vPre
	rDec := pDec / vDec
	if rPre < 3 || rPre > 25 {
		t.Errorf("P100/V100 prefill ratio %.2f outside Fig-3 band (paper: 14.53)", rPre)
	}
	if rDec < 1 || rDec > 2.5 {
		t.Errorf("P100/V100 decode ratio %.2f should be near bandwidth ratio (~1.2)", rDec)
	}
	if rPre < 2*rDec {
		t.Errorf("phase ratios should diverge: prefill %.2f vs decode %.2f", rPre, rDec)
	}
}

func TestQuantSpeedsUpDecodeNotAlwaysPrefill(t *testing.T) {
	// §2.4 observation 2: low-precision weights speed up the memory-bound
	// decode phase, but FP16 often stays fastest for compute-bound prefill
	// (dequant overhead).
	cfg := model.OPT30B
	decFP16, _ := LayerTime(hardware.V100, cfg, Workload{Batch: 4, Prompt: 512, Context: 512, Bits: 16})
	decINT4, _ := LayerTime(hardware.V100, cfg, Workload{Batch: 4, Prompt: 512, Context: 512, Bits: 4})
	if decINT4 >= decFP16 {
		t.Errorf("V100 decode: INT4 %.4gs should beat FP16 %.4gs (memory-bound)", decINT4, decFP16)
	}
	preFP16, _ := LayerTime(hardware.V100, cfg, Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16})
	preINT4, _ := LayerTime(hardware.V100, cfg, Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 4})
	if preINT4 <= preFP16 {
		t.Errorf("V100 prefill: INT4 %.4gs should lose to FP16 %.4gs (dequant overhead)", preINT4, preFP16)
	}
}

func TestT4INT8ComparableToFP16V100INT8Slower(t *testing.T) {
	// §2.5: T4's INT8 prefill comparable to (here: not slower than) FP16;
	// V100's INT8 slower than FP16.
	cfg := model.OPT13B
	w16 := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	w8 := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 8}
	t4fp, _ := LayerTime(hardware.T4, cfg, w16)
	t4i8, _ := LayerTime(hardware.T4, cfg, w8)
	if t4i8 > t4fp*1.05 {
		t.Errorf("T4 INT8 prefill %.4g should be comparable to FP16 %.4g", t4i8, t4fp)
	}
	vfp, _ := LayerTime(hardware.V100, cfg, w16)
	vi8, _ := LayerTime(hardware.V100, cfg, w8)
	if vi8 <= vfp {
		t.Errorf("V100 INT8 prefill %.4g should be slower than FP16 %.4g", vi8, vfp)
	}
}

func TestFasterGPUFaster(t *testing.T) {
	w := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	p100, _ := LayerTime(hardware.P100, model.OPT30B, w)
	v100, _ := LayerTime(hardware.V100, model.OPT30B, w)
	a100, _ := LayerTime(hardware.A100, model.OPT30B, w)
	if !(a100 < v100 && v100 < p100) {
		t.Errorf("prefill order wrong: A100=%.4g V100=%.4g P100=%.4g", a100, v100, p100)
	}
	// Fig 3 annotates P100/V100 prefill ratio ≈ our FP16 TFLOPS ratio ≈6.
	r := p100 / v100
	if r < 3 || r > 12 {
		t.Errorf("P100/V100 prefill ratio %.1f outside plausible band", r)
	}
}

func TestSampleReproducibleAndNearTruth(t *testing.T) {
	w := Workload{Batch: 8, Prompt: 512, Prefill: true, Bits: 16}
	truth, _ := LayerTime(hardware.V100, model.OPT30B, w)
	a, err := Sample(hardware.V100, model.OPT30B, w, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Sample(hardware.V100, model.OPT30B, w, rand.New(rand.NewSource(1)))
	if a != b {
		t.Error("same seed must give identical sample")
	}
	if math.Abs(a-truth)/truth > 0.2 {
		t.Errorf("sample %.4g too far from truth %.4g", a, truth)
	}
}

func TestProfileGridCoversAllPrecisions(t *testing.T) {
	pts, err := ProfileGrid(hardware.T4, model.OPT13B, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	var prefill, decode int
	for _, p := range pts {
		seen[p.W.Bits]++
		if p.Time <= 0 {
			t.Fatalf("nonpositive time for %+v", p.W)
		}
		if p.W.Prefill {
			prefill++
		} else {
			decode++
		}
	}
	for _, b := range hardware.Bits {
		if seen[b] == 0 {
			t.Errorf("grid missing %d-bit points", b)
		}
	}
	if prefill == 0 || decode == 0 {
		t.Error("grid must cover both phases")
	}
}

func TestEmbedTime(t *testing.T) {
	tm, err := EmbedTime(hardware.V100, model.OPT30B, 32, 512)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Errorf("embed time %.4g", tm)
	}
	one, _ := EmbedTime(hardware.V100, model.OPT30B, 32, 1)
	if one >= tm {
		t.Error("single-token embed should be cheaper than 512-token")
	}
	if _, err := EmbedTime(hardware.V100, model.OPT30B, 0, 1); err == nil {
		t.Error("expected validation error")
	}
}

func TestDecodeTimeGrowsWithContext(t *testing.T) {
	short, _ := LayerTime(hardware.T4, model.OPT30B, Workload{Batch: 8, Context: 128, Bits: 16})
	long, _ := LayerTime(hardware.T4, model.OPT30B, Workload{Batch: 8, Context: 1024, Bits: 16})
	if long <= short {
		t.Errorf("decode time should grow with KV length: %.4g vs %.4g", short, long)
	}
}
