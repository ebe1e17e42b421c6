package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
)

var trainCfg = Config{Vocab: 24, Hidden: 16, FFN: 32, Layers: 2, Heads: 2, MaxSeq: 16, SensitivitySlope: 0}

func TestGradientsMatchFiniteDifferences(t *testing.T) {
	// The gold-standard backprop check: analytic gradients vs central
	// finite differences for randomly sampled parameters of every kind.
	m, err := New(trainCfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 5, 9, 13, 2, 7}
	g := m.zeroGrads()
	if _, err := m.lossAndGrads(seq, g); err != nil {
		t.Fatal(err)
	}
	params := m.paramSlices()
	lossAt := func() float64 {
		// Working copies must track masters for the forward pass.
		for _, l := range m.Layers {
			for _, lin := range l.linears() {
				lin.work = lin.master.Clone()
			}
		}
		loss, err := m.CrossEntropy(seq)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	rng := rand.New(rand.NewSource(9))
	const h = 1e-6
	checked := 0
	for trial := 0; trial < 60; trial++ {
		pi := rng.Intn(len(params))
		if len(params[pi]) == 0 {
			continue
		}
		j := rng.Intn(len(params[pi]))
		orig := params[pi][j]
		params[pi][j] = orig + h
		up := lossAt()
		params[pi][j] = orig - h
		down := lossAt()
		params[pi][j] = orig
		numeric := (up - down) / (2 * h)
		analytic := g.bufs[pi][j]
		denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
		if math.Abs(numeric-analytic)/denom > 2e-3 {
			t.Errorf("param[%d][%d]: analytic %.8g vs numeric %.8g", pi, j, analytic, numeric)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d gradient checks ran", checked)
	}
	// Restore work copies.
	for _, l := range m.Layers {
		for _, lin := range l.linears() {
			lin.work = lin.master.Clone()
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	m, err := New(trainCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	corpus := MarkovCorpus(trainCfg.Vocab, 16, 12, 7)
	first, err := tr.Step(corpus[:8])
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for step := 0; step < 120; step++ {
		last, err = tr.Step(corpus[(step%2)*8 : (step%2)*8+8])
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first*0.75 {
		t.Errorf("training barely moved: first loss %.4f, last %.4f", first, last)
	}
	// A trained model must beat chance (ln V) and approach the chain's
	// conditional entropy (ln 4 ≈ 1.39 for 4 successors).
	if last > math.Log(float64(trainCfg.Vocab))*0.8 {
		t.Errorf("loss %.4f still near chance %.4f", last, math.Log(float64(trainCfg.Vocab)))
	}
}

func TestTrainedModelQuantizationOrdering(t *testing.T) {
	// The point of training for this repo: quantization damage on a
	// TRAINED model must still be ordered 16 ≤ 8 ≤ 4 — now measured on
	// genuinely learned structure instead of random weights.
	m, err := New(trainCfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	// One corpus = one Markov chain; the chain supplies unlimited fresh
	// samples, so every step trains on new sequences (no memorization) and
	// the tail is held out for evaluation.
	const steps = 200
	corpus := MarkovCorpus(trainCfg.Vocab, steps*8+8, 16, 13)
	heldOut := corpus[steps*8:]
	for step := 0; step < steps; step++ {
		if _, err := tr.Step(corpus[step*8 : (step+1)*8]); err != nil {
			t.Fatal(err)
		}
	}
	ceAt := func(bits int) float64 {
		for i := range m.Layers {
			if err := m.SetLayerBits(i, bits, quant.Deterministic, nil); err != nil {
				t.Fatal(err)
			}
		}
		var total float64
		for _, seq := range heldOut {
			ce, err := m.CrossEntropy(seq)
			if err != nil {
				t.Fatal(err)
			}
			total += ce
		}
		return total / float64(len(heldOut))
	}
	ce16 := ceAt(16)
	ce8 := ceAt(8)
	ce4 := ceAt(4)
	ce3 := ceAt(3)
	if !(ce8 <= ce4 && ce4 <= ce3) {
		t.Errorf("trained-model CE ordering broken: 16→%.4f 8→%.4f 4→%.4f 3→%.4f", ce16, ce8, ce4, ce3)
	}
	if math.Abs(ce8-ce16) > 0.3*(ce3-ce16)+1e-9 {
		t.Errorf("trained INT8 delta %.4f not small vs INT3 %.4f", ce8-ce16, ce3-ce16)
	}
	// Held-out CE of the trained model must be far below chance.
	if ce16 > math.Log(float64(trainCfg.Vocab))*0.8 {
		t.Errorf("trained model CE %.4f near chance — training failed", ce16)
	}
}

func TestTrainerValidation(t *testing.T) {
	m, _ := New(trainCfg, 1)
	if _, err := NewTrainer(m, 0); err == nil {
		t.Error("expected lr error")
	}
	m.SetLayerBits(0, 8, quant.Deterministic, nil)
	if _, err := NewTrainer(m, 1e-3); err == nil {
		t.Error("expected quantized-layer error")
	}
	m.SetLayerBits(0, 16, quant.Deterministic, nil)
	tr, err := NewTrainer(m, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(nil); err == nil {
		t.Error("expected empty batch error")
	}
	if _, err := tr.Step([][]int{{1}}); err == nil {
		t.Error("expected short sequence error")
	}
}

func TestMarkovCorpusShape(t *testing.T) {
	c := MarkovCorpus(32, 5, 20, 1)
	if len(c) != 5 {
		t.Fatalf("%d sequences", len(c))
	}
	for _, seq := range c {
		if len(seq) != 20 {
			t.Fatalf("sequence length %d", len(seq))
		}
		for _, tok := range seq {
			if tok < 0 || tok >= 32 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
	a := MarkovCorpus(32, 2, 10, 3)
	b := MarkovCorpus(32, 2, 10, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("corpus not reproducible")
			}
		}
	}
}
