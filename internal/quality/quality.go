// Package quality reports model quality (perplexity / accuracy) under bit
// assignments, on two paths:
//
//   - Reference path: real measurements on the internal/nn transformer —
//     pseudo-perplexity (exp of cross-entropy on a self-generated corpus)
//     and agreement accuracy (greedy-prediction match rate against the
//     full-precision model). Used for Fig 4, Table 1, and Table 6.
//
//   - Calibrated path: for the 13b–176b models that cannot be
//     instantiated, perplexity is anchored to the paper's published FP16
//     numbers and the per-bit deltas its tables imply, with the variance
//     indicator ω interpolating between anchors for mixed assignments
//     (DESIGN.md §3). Used for Tables 4, 5, 7.
package quality

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/indicator"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ReferenceResult is a real measurement on the reference transformer.
type ReferenceResult struct {
	PPL      float64 // exp(mean CE) on the evaluation corpus
	Accuracy float64 // greedy agreement with the FP16 model, in [0,1]
}

// Reference bundles a model with its evaluation corpus.
type Reference struct {
	Model  *nn.Model
	corpus [][]int
	// FP16 greedy predictions per corpus sequence position, for agreement
	// accuracy.
	teacher [][]int
}

// NewReference builds a reference evaluator: the model generates its own
// low-temperature corpus (the stand-in for WikiText2/PTB/C4) and records
// its full-precision greedy predictions.
func NewReference(cfg nn.Config, seed int64, sequences, tokensPer int) (*Reference, error) {
	if sequences < 1 || tokensPer < 4 {
		return nil, fmt.Errorf("quality: need ≥1 sequences of ≥4 tokens")
	}
	m, err := nn.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	r := &Reference{Model: m}
	for i := 0; i < sequences; i++ {
		prompt := []int{rng.Intn(cfg.Vocab), rng.Intn(cfg.Vocab)}
		seq, err := m.Generate(prompt, tokensPer, 0.7, rng)
		if err != nil {
			return nil, err
		}
		r.corpus = append(r.corpus, seq)
	}
	return r.withTeacher()
}

// NewTrainedReference builds a reference evaluator around a model TRAINED
// on a synthetic Markov corpus (pure-Go backprop, internal/nn): every
// training step sees fresh chain samples, and held-out chain sequences
// form the evaluation corpus. Quantization damage measured here reflects
// genuinely learned structure — the closest this substrate gets to the
// paper's real checkpoints.
func NewTrainedReference(cfg nn.Config, seed int64, steps int) (*Reference, error) {
	if steps < 1 {
		return nil, fmt.Errorf("quality: need ≥1 training steps")
	}
	m, err := nn.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	tr, err := nn.NewTrainer(m, 3e-3)
	if err != nil {
		return nil, err
	}
	const batch = 8
	seqLen := cfg.MaxSeq / 2
	if seqLen < 8 {
		seqLen = 8
	}
	corpus := nn.MarkovCorpus(cfg.Vocab, steps*batch+6, seqLen, seed+1)
	for s := 0; s < steps; s++ {
		if _, err := tr.Step(corpus[s*batch : (s+1)*batch]); err != nil {
			return nil, err
		}
	}
	r := &Reference{Model: m, corpus: corpus[steps*batch:]}
	return r.withTeacher()
}

// withTeacher records the full-precision model's greedy predictions on
// every corpus sequence and returns r.
func (r *Reference) withTeacher() (*Reference, error) {
	for _, seq := range r.corpus {
		logits, err := r.Model.Forward(seq[:len(seq)-1], nil)
		if err != nil {
			return nil, err
		}
		r.teacher = append(r.teacher, greedyPreds(logits))
	}
	return r, nil
}

// greedyPreds returns each logits row's argmax.
func greedyPreds(logits *tensor.Matrix) []int {
	preds := make([]int, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		preds[i] = best
	}
	return preds
}

// Measure applies a bit assignment and measures PPL and agreement
// accuracy. The model is restored to FP16 afterwards.
func (r *Reference) Measure(bits []int) (ReferenceResult, error) {
	if err := r.Model.ApplyBitAssignment(bits, quant.Deterministic, nil); err != nil {
		return ReferenceResult{}, err
	}
	return r.measureApplied()
}

// MeasureScheme applies a uniform bitwidth under a fine-grained
// quantization scheme (per-channel / group-wise, §7) and measures quality.
func (r *Reference) MeasureScheme(bits int, scheme quant.Scheme, groupSize int) (ReferenceResult, error) {
	for i := range r.Model.Layers {
		if err := r.Model.SetLayerScheme(i, bits, scheme, groupSize, quant.Deterministic, nil); err != nil {
			return ReferenceResult{}, err
		}
	}
	return r.measureApplied()
}

func (r *Reference) measureApplied() (ReferenceResult, error) {
	defer func() {
		full := make([]int, len(r.Model.Layers))
		for i := range full {
			full[i] = 16
		}
		_ = r.Model.ApplyBitAssignment(full, quant.Deterministic, nil)
	}()
	var ceSum float64
	var agree, total int
	for si, seq := range r.corpus {
		logits, err := r.Model.Forward(seq[:len(seq)-1], nil)
		if err != nil {
			return ReferenceResult{}, err
		}
		ce, err := nn.CrossEntropyOf(logits, seq)
		if err != nil {
			return ReferenceResult{}, err
		}
		ceSum += ce
		for i, p := range greedyPreds(logits) {
			if p == r.teacher[si][i] {
				agree++
			}
			total++
		}
	}
	return ReferenceResult{
		PPL:      math.Exp(ceSum / float64(len(r.corpus))),
		Accuracy: float64(agree) / float64(total),
	}, nil
}

// UniformBits builds a uniform assignment.
func UniformBits(layers, bits int) []int {
	out := make([]int, layers)
	for i := range out {
		out[i] = bits
	}
	return out
}

// MixedBits alternates between two precisions uniformly at random with a
// seed (the paper's 'mixed4-8' / 'mixed3-4' setups).
func MixedBits(layers, bitsA, bitsB int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, layers)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = bitsA
		} else {
			out[i] = bitsB
		}
	}
	return out
}

// Scorer is the calibrated path for full-size models.
type Scorer struct {
	ModelName string
	BasePPL   float64 // published FP16 perplexity (average over the three sets)
	BaseAcc   float64 // published zero-shot accuracy
	// alpha converts total ω to ΔPPL, calibrated so a uniform INT4
	// assignment lands on the paper's INT4 delta.
	alpha    float64
	accAlpha float64
	omega    indicator.Omega
}

// paperAnchor holds published FP16 PPL and the ΔPPL a uniform INT4 model
// shows (estimated from the paper's tables).
type paperAnchor struct {
	fp16   float64
	delta4 float64
	acc    float64
}

var anchors = map[string]paperAnchor{
	"opt-1.3b":   {fp16: 15.20, delta4: 0.55, acc: 0.633},
	"bloom-3b":   {fp16: 17.40, delta4: 0.42, acc: 0.612},
	"opt-13b":    {fp16: 11.22, delta4: 0.16, acc: 0.655},
	"opt-30b":    {fp16: 10.70, delta4: 0.10, acc: 0.668},
	"opt-66b":    {fp16: 10.33, delta4: 0.17, acc: 0.674},
	"bloom-176b": {fp16: 10.90, delta4: 0.07, acc: 0.681},
}

// NewScorer calibrates a scorer for a full-size model against its ω table.
func NewScorer(modelName string, omega indicator.Omega) (*Scorer, error) {
	a, ok := anchors[modelName]
	if !ok {
		return nil, fmt.Errorf("quality: no published anchor for %q", modelName)
	}
	total, err := omega.UniformTotal(4)
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("quality: degenerate omega (uniform INT4 total %.3g)", total)
	}
	return &Scorer{
		ModelName: modelName,
		BasePPL:   a.fp16,
		BaseAcc:   a.acc,
		alpha:     a.delta4 / total,
		accAlpha:  (a.delta4 / total) * 0.6, // accuracy degrades ~0.6pt per PPL point (Table 1 ratio)
		omega:     omega,
	}, nil
}

// PPL predicts perplexity for a bit assignment (len = omega layers).
func (s *Scorer) PPL(assignment []int) (float64, error) {
	total, err := s.omega.Total(assignment)
	if err != nil {
		return 0, err
	}
	return s.BasePPL + s.alpha*total, nil
}

// Accuracy predicts zero-shot accuracy for a bit assignment.
func (s *Scorer) Accuracy(assignment []int) (float64, error) {
	total, err := s.omega.Total(assignment)
	if err != nil {
		return 0, err
	}
	acc := s.BaseAcc - s.accAlpha*total
	if acc < 0 {
		acc = 0
	}
	return acc, nil
}
