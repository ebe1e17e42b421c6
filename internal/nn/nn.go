// Package nn implements a real (small) decoder-only transformer — the
// "reference model" — used to measure the quality impact of mixed-precision
// quantization with actual arithmetic rather than formulas.
//
// The paper measures perplexity of OPT/BLOOM checkpoints under bit
// assignments; without those weights (or a GPU ecosystem) we instead build a
// structurally identical decoder stack with controlled synthetic weights,
// generate a corpus from the full-precision model itself, and score any
// quantized variant by its cross-entropy on that corpus
// (pseudo-perplexity). Orderings between quantization schemes — the only
// thing the assigner consumes — transfer (DESIGN.md §3).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Config shapes a reference model.
type Config struct {
	Vocab  int
	Hidden int
	FFN    int
	Layers int
	Heads  int
	MaxSeq int
	// SensitivitySlope controls how strongly quantization sensitivity grows
	// with depth: deeper layers receive a sparse set of outlier weights
	// whose magnitude grows with SensitivitySlope·depth. Outliers inflate
	// the symmetric quantization range (hence the scale s_W and the real
	// rounding error) without adding proportional signal — the mechanism
	// behind hard-to-quantize layers in real LLMs — reproducing Table 1,
	// where quantizing later layer ranges hurts more. 0 means uniform.
	SensitivitySlope float64
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("nn: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	if c.Vocab < 2 || c.Layers < 1 || c.MaxSeq < 2 {
		return fmt.Errorf("nn: degenerate config %+v", c)
	}
	return nil
}

// TinyOPT is the default reference config standing in for OPT-1.3b in
// quality experiments.
var TinyOPT = Config{Vocab: 384, Hidden: 64, FFN: 256, Layers: 24, Heads: 4, MaxSeq: 96, SensitivitySlope: 2.0}

// TinyBLOOM stands in for BLOOM-3b (more layers, wider FFN ratio).
var TinyBLOOM = Config{Vocab: 384, Hidden: 64, FFN: 256, Layers: 30, Heads: 4, MaxSeq: 96, SensitivitySlope: 2.0}

// linear is one quantizable weight matrix with its master full-precision
// copy, the working (possibly dequantized) copy, and calibration statistics
// of its input activations.
type linear struct {
	master *tensor.Matrix
	work   *tensor.Matrix
	bias   []float64
	// Calibration stats of the input X, captured by CalibrateStats.
	InMean float64
	InVar  float64
}

func (l *linear) apply(x *tensor.Matrix) (*tensor.Matrix, error) {
	out, err := tensor.MatMul(x, l.work)
	if err != nil {
		return nil, err
	}
	if err := out.AddRow(l.bias); err != nil {
		return nil, err
	}
	return out, nil
}

// Layer is one decoder layer.
type Layer struct {
	wq, wk, wv, wo, fc1, fc2 *linear
	ln1g, ln1b, ln2g, ln2b   []float64
	bits                     int // current precision (16 = master weights)
}

// Bits returns the layer's current bitwidth.
func (l *Layer) Bits() int { return l.bits }

// KVCache stores per-layer key/value histories for incremental decoding.
type KVCache struct {
	K, V []*tensor.Matrix // one per layer, rows = past positions
}

// Len returns the cached context length (the first populated layer's
// history; a stage-local cache populates only its own layers).
func (kv *KVCache) Len() int {
	for _, k := range kv.K {
		if k != nil {
			return k.Rows
		}
	}
	return 0
}

// Model is the reference transformer.
type Model struct {
	Cfg    Config
	Embed  *tensor.Matrix // vocab × hidden
	Pos    *tensor.Matrix // maxseq × hidden
	LNFg   []float64
	LNFb   []float64
	Layers []*Layer
	// KVBits quantizes KV-cache entries as they are written (16 = off).
	// This is the real-arithmetic counterpart of the planner's KV-cache
	// quantization extension: K/V blocks are rounded to KVBits with
	// per-block scales before storage, so attention reads dequantized
	// values exactly as an INT8-KV kernel would.
	KVBits int
}

// SetKVBits selects the KV-cache storage precision (8 or 16).
func (m *Model) SetKVBits(bits int) error {
	switch bits {
	case 8, 16:
		m.KVBits = bits
		return nil
	default:
		return fmt.Errorf("nn: unsupported KV precision %d (want 8 or 16)", bits)
	}
}

// quantizeKV rounds a freshly-computed K or V block to the model's KV
// precision (per-block symmetric scales).
func (m *Model) quantizeKV(x *tensor.Matrix) (*tensor.Matrix, error) {
	if m.KVBits == 0 || m.KVBits >= 16 {
		return x, nil
	}
	deq, err := quant.RoundTrip(x.Data, x.Rows, x.Cols, m.KVBits, quant.Deterministic, nil)
	if err != nil {
		return nil, err
	}
	return tensor.FromData(x.Rows, x.Cols, deq)
}

// New creates a reference model with seeded Gaussian weights. Weight
// magnitude grows with depth according to SensitivitySlope so that deeper
// layers are more quantization-sensitive.
func New(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	h, f := cfg.Hidden, cfg.FFN
	sigmaEmbed := 1.0 / math.Sqrt(float64(h))
	m := &Model{
		Cfg:   cfg,
		Embed: tensor.Randn(cfg.Vocab, h, sigmaEmbed, rng),
		Pos:   tensor.Randn(cfg.MaxSeq, h, sigmaEmbed*0.5, rng),
		LNFg:  ones(h),
		LNFb:  make([]float64, h),
	}
	for i := 0; i < cfg.Layers; i++ {
		depth := float64(i) / math.Max(1, float64(cfg.Layers-1))
		sw := 1 / math.Sqrt(float64(h))
		sf := 1 / math.Sqrt(float64(f))
		l := &Layer{
			wq:   newLinear(h, h, sw, rng),
			wk:   newLinear(h, h, sw, rng),
			wv:   newLinear(h, h, sw, rng),
			wo:   newLinear(h, h, sw/math.Sqrt(2*float64(cfg.Layers)), rng),
			fc1:  newLinear(h, f, sw, rng),
			fc2:  newLinear(f, h, sf/math.Sqrt(2*float64(cfg.Layers)), rng),
			ln1g: ones(h), ln1b: make([]float64, h),
			ln2g: ones(h), ln2b: make([]float64, h),
			bits: 16,
		}
		// Depth-growing outlier weights: ~0.5% of each linear's entries are
		// magnified, widening the quantization range without adding
		// proportional signal. Relative rounding error therefore grows
		// with depth even though typical weight scales stay constant.
		outlier := 1 + 5*cfg.SensitivitySlope*depth
		if outlier > 1 {
			for _, lin := range l.linears() {
				injectOutliers(lin.master.Data, 0.005, outlier, rng)
				lin.work = lin.master.Clone()
			}
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// injectOutliers multiplies a random `frac` of entries by `factor`.
func injectOutliers(w []float64, frac, factor float64, rng *rand.Rand) {
	n := int(frac * float64(len(w)))
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		w[rng.Intn(len(w))] *= factor
	}
}

func newLinear(in, out int, sigma float64, rng *rand.Rand) *linear {
	w := tensor.Randn(in, out, sigma, rng)
	return &linear{master: w, work: w.Clone(), bias: make([]float64, out)}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// linears enumerates a layer's quantizable operators (paper §4.2: weight-only
// quantization targets linear operators).
func (l *Layer) linears() []*linear {
	return []*linear{l.wq, l.wk, l.wv, l.wo, l.fc1, l.fc2}
}

// SetLayerBits quantizes layer i's linear weights to the given bitwidth
// (16 restores master weights). The master copy is never modified, so bit
// assignments can be swapped freely.
func (m *Model) SetLayerBits(i, bits int, r quant.Rounding, rng *rand.Rand) error {
	if i < 0 || i >= len(m.Layers) {
		return fmt.Errorf("nn: layer %d out of range [0,%d)", i, len(m.Layers))
	}
	l := m.Layers[i]
	if bits == 16 {
		for _, lin := range l.linears() {
			lin.work = lin.master.Clone()
		}
		l.bits = 16
		return nil
	}
	for _, lin := range l.linears() {
		deq, err := quant.RoundTrip(lin.master.Data, lin.master.Rows, lin.master.Cols, bits, r, rng)
		if err != nil {
			return err
		}
		w, err := tensor.FromData(lin.master.Rows, lin.master.Cols, deq)
		if err != nil {
			return err
		}
		lin.work = w
	}
	l.bits = bits
	return nil
}

// SetLayerScheme quantizes layer i with a fine-grained scheme (per-channel
// or group-wise scales) — the §7 drop-in candidates (AWQ/SpQR/GPTQ group
// variants). bits == 16 restores master weights regardless of scheme.
func (m *Model) SetLayerScheme(i, bits int, scheme quant.Scheme, groupSize int, r quant.Rounding, rng *rand.Rand) error {
	if i < 0 || i >= len(m.Layers) {
		return fmt.Errorf("nn: layer %d out of range [0,%d)", i, len(m.Layers))
	}
	l := m.Layers[i]
	if bits == 16 {
		for _, lin := range l.linears() {
			lin.work = lin.master.Clone()
		}
		l.bits = 16
		return nil
	}
	for _, lin := range l.linears() {
		deq, err := quant.RoundTripGrouped(lin.master.Data, lin.master.Rows, lin.master.Cols, bits, scheme, groupSize, r, rng)
		if err != nil {
			return err
		}
		w, err := tensor.FromData(lin.master.Rows, lin.master.Cols, deq)
		if err != nil {
			return err
		}
		lin.work = w
	}
	l.bits = bits
	return nil
}

// ApplyBitAssignment sets every layer's precision from the given slice
// (len == Layers).
func (m *Model) ApplyBitAssignment(bits []int, r quant.Rounding, rng *rand.Rand) error {
	if len(bits) != len(m.Layers) {
		return fmt.Errorf("nn: %d bit entries for %d layers", len(bits), len(m.Layers))
	}
	for i, b := range bits {
		if err := m.SetLayerBits(i, b, r, rng); err != nil {
			return err
		}
	}
	return nil
}

// NewCache allocates an empty KV cache for incremental decoding.
func (m *Model) NewCache() *KVCache {
	return &KVCache{K: make([]*tensor.Matrix, len(m.Layers)), V: make([]*tensor.Matrix, len(m.Layers))}
}

// Forward runs the decoder on `tokens` (appended after cache contents) and
// returns logits for each new position (rows = len(tokens)). With a non-nil
// cache this is the prefill/decode path of the paper's Fig 2: prefill passes
// the whole prompt, decode passes one token re-using cached KV pairs.
func (m *Model) Forward(tokens []int, cache *KVCache) (*tensor.Matrix, error) {
	return m.forward(tokens, cache, nil)
}

// forward is Forward with an optional tape: a non-nil tp records every
// layer's intermediates and the final LayerNorm's input.
func (m *Model) forward(tokens []int, cache *KVCache, tp *tape) (*tensor.Matrix, error) {
	past := 0
	if cache != nil {
		past = cache.Len()
	}
	x, err := m.EmbedTokens(tokens, past)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		tp.layers = make([]layerTape, len(m.Layers))
	}
	x, err = m.forwardRange(0, len(m.Layers), x, cache, tp)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		tp.lnfIn = x
	}
	return m.Logits(x)
}

// EmbedTokens is the master engine's preprocessing step (paper §3):
// token-embedding lookup plus position embedding at offset `past`.
func (m *Model) EmbedTokens(tokens []int, past int) (*tensor.Matrix, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("nn: empty token batch")
	}
	if past < 0 || past+len(tokens) > m.Cfg.MaxSeq {
		return nil, fmt.Errorf("nn: sequence %d exceeds MaxSeq %d", past+len(tokens), m.Cfg.MaxSeq)
	}
	h := m.Cfg.Hidden
	x := tensor.New(len(tokens), h)
	for i, tok := range tokens {
		if tok < 0 || tok >= m.Cfg.Vocab {
			return nil, fmt.Errorf("nn: token %d out of vocab %d", tok, m.Cfg.Vocab)
		}
		copy(x.Row(i), m.Embed.Row(tok))
		pos := m.Pos.Row(past + i)
		xr := x.Row(i)
		for j := range xr {
			xr[j] += pos[j]
		}
	}
	return x, nil
}

// ForwardRange runs layers [lo, hi) on hidden states x — one pipeline
// stage's share of the model. The cache is indexed by absolute layer, so a
// stage can pass its own KVCache covering only its layers.
func (m *Model) ForwardRange(lo, hi int, x *tensor.Matrix, cache *KVCache) (*tensor.Matrix, error) {
	return m.forwardRange(lo, hi, x, cache, nil)
}

// forwardRange is ForwardRange with an optional tape, whose layers slice
// is indexed by absolute layer.
func (m *Model) forwardRange(lo, hi int, x *tensor.Matrix, cache *KVCache, tp *tape) (*tensor.Matrix, error) {
	if lo < 0 || hi > len(m.Layers) || lo >= hi {
		return nil, fmt.Errorf("nn: layer range [%d,%d) out of [0,%d]", lo, hi, len(m.Layers))
	}
	for li := lo; li < hi; li++ {
		var lt *layerTape
		if tp != nil {
			lt = &tp.layers[li]
		}
		var err error
		x, err = m.layerForward(m.Layers[li], li, x, cache, lt)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", li, err)
		}
	}
	return x, nil
}

// Logits is the master engine's postprocessing step: final LayerNorm plus
// the (tied) LM-head projection.
func (m *Model) Logits(x *tensor.Matrix) (*tensor.Matrix, error) {
	out := x.Clone()
	if err := out.LayerNormRows(m.LNFg, m.LNFb); err != nil {
		return nil, err
	}
	return tensor.MatMulT(out, m.Embed)
}

// layerTape holds one decoder layer's forward intermediates, for
// training's backward pass and for calibration statistics.
type layerTape struct {
	xIn     *tensor.Matrix // layer input (residual stream)
	ln1Out  *tensor.Matrix
	q, k, v *tensor.Matrix
	probs   []*tensor.Matrix // per head, s×s
	ctx     *tensor.Matrix
	resid2  *tensor.Matrix // xIn + attnOut (input to LN2 path)
	ln2Out  *tensor.Matrix
	fc1Out  *tensor.Matrix // pre-GELU
	gelu    *tensor.Matrix
}

// tape records a whole forward pass.
type tape struct {
	layers []layerTape
	lnfIn  *tensor.Matrix // input to the final LayerNorm
}

// layerForward runs decoder layer li on x, overwriting x with its LN1
// output. A nil lt records nothing. A non-nil lt records the layer's
// intermediates without copying them, since nothing writes any of them
// after it is recorded. The one exception is the pre-GELU activation,
// which GELU overwrites in place; it is cloned, and only when lt is set.
func (m *Model) layerForward(l *Layer, li int, x *tensor.Matrix, cache *KVCache, lt *layerTape) (*tensor.Matrix, error) {
	resid := x.Clone()
	if err := x.LayerNormRows(l.ln1g, l.ln1b); err != nil {
		return nil, err
	}
	q, err := l.wq.apply(x)
	if err != nil {
		return nil, err
	}
	k, err := l.wk.apply(x)
	if err != nil {
		return nil, err
	}
	v, err := l.wv.apply(x)
	if err != nil {
		return nil, err
	}
	past := 0
	if cache != nil {
		if k, err = m.quantizeKV(k); err != nil {
			return nil, err
		}
		if v, err = m.quantizeKV(v); err != nil {
			return nil, err
		}
		if cache.K[li] != nil {
			past = cache.K[li].Rows
			if k, err = tensor.VStack(cache.K[li], k); err != nil {
				return nil, err
			}
			if v, err = tensor.VStack(cache.V[li], v); err != nil {
				return nil, err
			}
		}
		cache.K[li] = k
		cache.V[li] = v
	}
	ctx, err := m.attention(q, k, v, past, lt)
	if err != nil {
		return nil, err
	}
	attnOut, err := l.wo.apply(ctx)
	if err != nil {
		return nil, err
	}
	if err := attnOut.Add(resid); err != nil {
		return nil, err
	}
	resid2 := attnOut.Clone()
	if err := attnOut.LayerNormRows(l.ln2g, l.ln2b); err != nil {
		return nil, err
	}
	hid, err := l.fc1.apply(attnOut)
	if err != nil {
		return nil, err
	}
	var pre *tensor.Matrix
	if lt != nil {
		pre = hid.Clone()
	}
	hid.GELU()
	out, err := l.fc2.apply(hid)
	if err != nil {
		return nil, err
	}
	if err := out.Add(resid2); err != nil {
		return nil, err
	}
	if lt != nil {
		*lt = layerTape{xIn: resid, ln1Out: x, q: q, k: k, v: v, probs: lt.probs, ctx: ctx,
			resid2: resid2, ln2Out: attnOut, fc1Out: pre, gelu: hid}
	}
	return out, nil
}

// attention computes multi-head causal attention. q has rows = new tokens;
// k, v include `past` cached rows. A non-nil lt records each head's
// softmax probabilities.
func (m *Model) attention(q, k, v *tensor.Matrix, past int, lt *layerTape) (*tensor.Matrix, error) {
	nh := m.Cfg.Heads
	dh := m.Cfg.Hidden / nh
	out := tensor.New(q.Rows, m.Cfg.Hidden)
	scale := 1 / math.Sqrt(float64(dh))
	for hIdx := 0; hIdx < nh; hIdx++ {
		qh := headSlice(q, hIdx, dh)
		kh := headSlice(k, hIdx, dh)
		vh := headSlice(v, hIdx, dh)
		scores, err := tensor.MatMulT(qh, kh)
		if err != nil {
			return nil, err
		}
		scores.Scale(scale)
		scores.CausalMask(past)
		scores.SoftmaxRows()
		if lt != nil {
			lt.probs = append(lt.probs, scores)
		}
		ctx, err := tensor.MatMul(scores, vh)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ctx.Rows; i++ {
			copy(out.Row(i)[hIdx*dh:(hIdx+1)*dh], ctx.Row(i))
		}
	}
	return out, nil
}

func headSlice(m *tensor.Matrix, h, dh int) *tensor.Matrix {
	out := tensor.New(m.Rows, dh)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[h*dh:(h+1)*dh])
	}
	return out
}

// CalibrateStats runs one taped forward pass over the calibration tokens
// and fills each linear's InMean/InVar from the input it saw. This is the
// paper's "calibration data from the C4 dataset" step (§2.4).
func (m *Model) CalibrateStats(tokens []int) error {
	tp := &tape{}
	if _, err := m.forward(tokens, nil, tp); err != nil {
		return err
	}
	for li, l := range m.Layers {
		lt := &tp.layers[li]
		// In linears() order: wq, wk, wv, wo, fc1, fc2.
		inputs := []*tensor.Matrix{lt.ln1Out, lt.ln1Out, lt.ln1Out, lt.ctx, lt.ln2Out, lt.gelu}
		for i, lin := range l.linears() {
			lin.InMean = inputs[i].Mean()
			lin.InVar = inputs[i].Variance()
		}
	}
	return nil
}

// LinearStats describes one quantizable operator for the indicator: its
// inner dimension D_W, full-precision weight range (for the scale), and
// calibrated input statistics.
type LinearStats struct {
	DW     int
	WMin   float64
	WMax   float64
	InMean float64
	InVar  float64
}

// LayerLinearStats exports the per-operator statistics of layer i.
func (m *Model) LayerLinearStats(i int) ([]LinearStats, error) {
	if i < 0 || i >= len(m.Layers) {
		return nil, fmt.Errorf("nn: layer %d out of range", i)
	}
	var out []LinearStats
	for _, lin := range m.Layers[i].linears() {
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, w := range lin.master.Data {
			if w < minV {
				minV = w
			}
			if w > maxV {
				maxV = w
			}
		}
		out = append(out, LinearStats{
			DW: lin.master.Rows, WMin: minV, WMax: maxV,
			InMean: lin.InMean, InVar: lin.InVar,
		})
	}
	return out, nil
}

// Generate samples `n` tokens autoregressively from the model starting at
// `prompt`, using temperature sampling. Used to build the evaluation corpus.
func (m *Model) Generate(prompt []int, n int, temp float64, rng *rand.Rand) ([]int, error) {
	seq := append([]int(nil), prompt...)
	cache := m.NewCache()
	logits, err := m.Forward(prompt, cache)
	if err != nil {
		return nil, err
	}
	for step := 0; step < n; step++ {
		last := logits.Row(logits.Rows - 1)
		tok := sample(last, temp, rng)
		seq = append(seq, tok)
		if len(seq) >= m.Cfg.MaxSeq {
			break
		}
		logits, err = m.Forward([]int{tok}, cache)
		if err != nil {
			return nil, err
		}
	}
	return seq, nil
}

func sample(logits []float64, temp float64, rng *rand.Rand) int {
	probs := make([]float64, len(logits))
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range logits {
		p := math.Exp((v - maxV) / temp)
		probs[i] = p
		sum += p
	}
	u := rng.Float64() * sum
	for i, p := range probs {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return len(probs) - 1
}

// CrossEntropy scores the model's next-token prediction over seq (teacher
// forcing) and returns mean negative log-likelihood in nats.
func (m *Model) CrossEntropy(seq []int) (float64, error) {
	if len(seq) < 2 {
		return 0, fmt.Errorf("nn: need at least 2 tokens, got %d", len(seq))
	}
	logits, err := m.Forward(seq[:len(seq)-1], nil)
	if err != nil {
		return 0, err
	}
	return CrossEntropyOf(logits, seq)
}

// CrossEntropyOf scores logits from Forward(seq[:len(seq)-1], nil) against
// seq's next tokens and returns mean negative log-likelihood in nats.
func CrossEntropyOf(logits *tensor.Matrix, seq []int) (float64, error) {
	if logits.Rows == 0 || logits.Rows != len(seq)-1 {
		return 0, fmt.Errorf("nn: %d logit rows for a %d-token sequence", logits.Rows, len(seq))
	}
	var total float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		total += logSumExp(row) - row[seq[i+1]]
	}
	return total / float64(logits.Rows), nil
}

// logSumExp returns log Σ exp(row), shifted by the row maximum for
// stability.
func logSumExp(row []float64) float64 {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(v - maxV)
	}
	return maxV + math.Log(sum)
}
