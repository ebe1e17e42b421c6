package nn

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quant"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenCfg is small enough that every fixture below computes in a few
// milliseconds, with depth-growing outliers so quantized layers differ.
var goldenCfg = Config{Vocab: 32, Hidden: 16, FFN: 48, Layers: 3, Heads: 2, MaxSeq: 16, SensitivitySlope: 1}

// goldenNN pins the reference transformer's numerics. encoding/json writes
// each float64 in its shortest round-trip form, so the fixture holds the
// exact bits; checkGoldenFloats compares them bit for bit.
type goldenNN struct {
	FullLogits    []float64 `json:"full_logits"`
	PrefillLogits []float64 `json:"prefill_logits"`
	DecodeLogits  []float64 `json:"decode_logits"`
	InMean        []float64 `json:"in_mean"`
	InVar         []float64 `json:"in_var"`
	TrainLosses   []float64 `json:"train_losses"`
	TrainedCE     []float64 `json:"trained_ce"`
}

func computeGoldenNN(t *testing.T) goldenNN {
	t.Helper()
	var g goldenNN
	m, err := New(goldenCfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyBitAssignment([]int{4, 8, 16}, quant.Deterministic, nil); err != nil {
		t.Fatal(err)
	}
	seq := []int{3, 17, 29, 9, 21, 7, 5, 30}
	full, err := m.Forward(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.FullLogits = full.Data
	// Cached prefill then token-by-token decode, with an INT8 KV cache.
	if err := m.SetKVBits(8); err != nil {
		t.Fatal(err)
	}
	cache := m.NewCache()
	pre, err := m.Forward(seq[:5], cache)
	if err != nil {
		t.Fatal(err)
	}
	g.PrefillLogits = pre.Data
	for _, tok := range seq[5:] {
		dec, err := m.Forward([]int{tok}, cache)
		if err != nil {
			t.Fatal(err)
		}
		g.DecodeLogits = append(g.DecodeLogits, dec.Data...)
	}
	if err := m.CalibrateStats(seq); err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Layers {
		for _, lin := range l.linears() {
			g.InMean = append(g.InMean, lin.InMean)
			g.InVar = append(g.InVar, lin.InVar)
		}
	}

	tm, err := New(trainCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(tm, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	const steps, batch = 5, 4
	corpus := MarkovCorpus(trainCfg.Vocab, steps*batch+batch, 12, 7)
	for s := 0; s < steps; s++ {
		loss, err := tr.Step(corpus[s*batch : (s+1)*batch])
		if err != nil {
			t.Fatal(err)
		}
		g.TrainLosses = append(g.TrainLosses, loss)
	}
	for _, seq := range corpus[steps*batch:] {
		ce, err := tm.CrossEntropy(seq)
		if err != nil {
			t.Fatal(err)
		}
		g.TrainedCE = append(g.TrainedCE, ce)
	}
	return g
}

// TestGoldenNumerics pins forward logits (full, KV prefill, KV decode),
// calibration statistics and seeded training losses to the exact bits in
// testdata/golden.json. Refresh only on an intended numerics change:
// go test ./internal/nn -run TestGoldenNumerics -update
func TestGoldenNumerics(t *testing.T) {
	got := computeGoldenNN(t)
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	var want goldenNN
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	checkGoldenFloats(t, "full_logits", want.FullLogits, got.FullLogits)
	checkGoldenFloats(t, "prefill_logits", want.PrefillLogits, got.PrefillLogits)
	checkGoldenFloats(t, "decode_logits", want.DecodeLogits, got.DecodeLogits)
	checkGoldenFloats(t, "in_mean", want.InMean, got.InMean)
	checkGoldenFloats(t, "in_var", want.InVar, got.InVar)
	checkGoldenFloats(t, "train_losses", want.TrainLosses, got.TrainLosses)
	checkGoldenFloats(t, "trained_ce", want.TrainedCE, got.TrainedCE)
}

func checkGoldenFloats(t *testing.T, field string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d values, fixture has %d", field, len(got), len(want))
		return
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Errorf("%s[%d] = %v, fixture has %v (bits differ)", field, i, got[i], want[i])
			return
		}
	}
}
