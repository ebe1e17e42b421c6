// Training support for the reference transformer: manual backpropagation
// from the forward pass's tape through every operator (tied-embedding head,
// LayerNorm, causal multi-head attention, GELU MLP, residuals), and an
// Adam optimizer — all in pure Go.
//
// Training matters for the reproduction's quality experiments: a trained
// model makes confident, structured predictions, so quantization damage
// measured on it behaves like the paper's real checkpoints rather than
// like noise on a random network. Gradients are verified against finite
// differences in tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Grads accumulates gradients for every parameter (paired with the model's
// parameter registry order).
type Grads struct {
	bufs [][]float64
}

// trainState is the Adam optimizer state.
type trainState struct {
	params [][]float64 // views into the model's master tensors
	m, v   [][]float64
	step   int
}

// Trainer runs Adam on a reference model.
type Trainer struct {
	Model *Model
	LR    float64
	state *trainState
}

// NewTrainer prepares a model for training (all layers must be FP16).
func NewTrainer(m *Model, lr float64) (*Trainer, error) {
	for i, l := range m.Layers {
		if l.Bits() != 16 {
			return nil, fmt.Errorf("nn: layer %d quantized (%d-bit); train in FP16", i, l.Bits())
		}
	}
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate must be positive")
	}
	st := &trainState{params: m.paramSlices()}
	for _, p := range st.params {
		st.m = append(st.m, make([]float64, len(p)))
		st.v = append(st.v, make([]float64, len(p)))
	}
	return &Trainer{Model: m, LR: lr, state: st}, nil
}

// paramSlices enumerates every trainable tensor in a fixed order.
func (m *Model) paramSlices() [][]float64 {
	out := [][]float64{m.Embed.Data, m.Pos.Data, m.LNFg, m.LNFb}
	for _, l := range m.Layers {
		for _, lin := range l.linears() {
			out = append(out, lin.master.Data, lin.bias)
		}
		out = append(out, l.ln1g, l.ln1b, l.ln2g, l.ln2b)
	}
	return out
}

// zeroGrads allocates a gradient set matching paramSlices.
func (m *Model) zeroGrads() *Grads {
	g := &Grads{}
	for _, p := range m.paramSlices() {
		g.bufs = append(g.bufs, make([]float64, len(p)))
	}
	return g
}

// lossAndGrads computes mean next-token cross-entropy on seq and
// accumulates gradients into g.
func (m *Model) lossAndGrads(seq []int, g *Grads) (float64, error) {
	if len(seq) < 2 {
		return 0, fmt.Errorf("nn: need ≥2 tokens to train")
	}
	inputs := seq[:len(seq)-1]
	tp := &tape{}
	logits, err := m.forward(inputs, nil, tp)
	if err != nil {
		return 0, err
	}
	loss, err := CrossEntropyOf(logits, seq)
	if err != nil {
		return 0, err
	}
	// dLogits of the mean softmax cross-entropy.
	s := len(inputs)
	dLogits := tensor.New(s, m.Cfg.Vocab)
	for i := 0; i < s; i++ {
		row := logits.Row(i)
		lse := logSumExp(row)
		dr := dLogits.Row(i)
		for j := range dr {
			dr[j] = math.Exp(row[j]-lse) / float64(s)
		}
		dr[seq[i+1]] -= 1 / float64(s)
	}

	gi := newGradIndex(m, g)
	// Tied head: logits = lnfOut · Embedᵀ, with lnfOut recomputed from the
	// tape exactly as Logits computes it.
	lnfOut := tp.lnfIn.Clone()
	if err := lnfOut.LayerNormRows(m.LNFg, m.LNFb); err != nil {
		return 0, err
	}
	dLnfOut, err := tensor.MatMul(dLogits, m.Embed)
	if err != nil {
		return 0, err
	}
	dEmbHead, err := tensor.MatMulAT(dLogits, lnfOut)
	if err != nil {
		return 0, err
	}
	gi.add(gi.embed, dEmbHead.Data)
	// Final LN.
	dx := layerNormBackward(tp.lnfIn, m.LNFg, dLnfOut, gi.buf(gi.lnfG), gi.buf(gi.lnfB))
	// Layers in reverse.
	for li := len(m.Layers) - 1; li >= 0; li-- {
		dx, err = m.layerBackward(li, &tp.layers[li], dx, gi)
		if err != nil {
			return 0, err
		}
	}
	// Embedding lookup: x0[i] = E[tok] + P[i].
	embedG := gi.buf(gi.embed)
	posG := gi.buf(gi.pos)
	h := m.Cfg.Hidden
	for i, tok := range inputs {
		dr := dx.Row(i)
		for j := 0; j < h; j++ {
			embedG[tok*h+j] += dr[j]
			posG[i*h+j] += dr[j]
		}
	}
	return loss, nil
}

// gradIndex maps parameter names to Grads buffer indices (mirrors
// paramSlices order).
type gradIndex struct {
	g            *Grads
	embed, pos   int
	lnfG, lnfB   int
	layerBase    int // first buffer index of layer 0
	perLayerBufs int
}

func newGradIndex(m *Model, g *Grads) *gradIndex {
	return &gradIndex{g: g, embed: 0, pos: 1, lnfG: 2, lnfB: 3, layerBase: 4, perLayerBufs: 16}
}

func (gi *gradIndex) buf(i int) []float64 { return gi.g.bufs[i] }

func (gi *gradIndex) add(i int, v []float64) {
	dst := gi.g.bufs[i]
	for j := range v {
		dst[j] += v[j]
	}
}

// Layer buffer layout: 6 linears × (w, b) = 12, then ln1g, ln1b, ln2g, ln2b.
func (gi *gradIndex) linW(layer, op int) int { return gi.layerBase + layer*gi.perLayerBufs + 2*op }
func (gi *gradIndex) linB(layer, op int) int { return gi.layerBase + layer*gi.perLayerBufs + 2*op + 1 }
func (gi *gradIndex) ln(layer, which int) int {
	return gi.layerBase + layer*gi.perLayerBufs + 12 + which
}

// linearBackward: y = x·W + b. Returns dx; accumulates dW, db.
func linearBackward(x *tensor.Matrix, w *tensor.Matrix, dy *tensor.Matrix, dW, dB []float64) (*tensor.Matrix, error) {
	gw, err := tensor.MatMulAT(x, dy)
	if err != nil {
		return nil, err
	}
	for i := range gw.Data {
		dW[i] += gw.Data[i]
	}
	for i := 0; i < dy.Rows; i++ {
		r := dy.Row(i)
		for j := range r {
			dB[j] += r[j]
		}
	}
	return tensor.MatMulT(dy, w)
}

// layerNormBackward: y = g⊙x̂ + b over rows of x. Returns dx; accumulates
// dGain, dBias.
func layerNormBackward(x *tensor.Matrix, gain []float64, dy *tensor.Matrix, dGain, dBias []float64) *tensor.Matrix {
	const eps = 1e-5
	dx := tensor.New(x.Rows, x.Cols)
	n := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		dyr := dy.Row(i)
		var mean float64
		for _, v := range xr {
			mean += v
		}
		mean /= n
		var variance float64
		for _, v := range xr {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+eps)
		// x̂ and the two reduction terms.
		var sumDxhat, sumDxhatXhat float64
		xhat := make([]float64, x.Cols)
		dxhat := make([]float64, x.Cols)
		for j := range xr {
			xhat[j] = (xr[j] - mean) * inv
			dGain[j] += dyr[j] * xhat[j]
			dBias[j] += dyr[j]
			dxhat[j] = dyr[j] * gain[j]
			sumDxhat += dxhat[j]
			sumDxhatXhat += dxhat[j] * xhat[j]
		}
		dr := dx.Row(i)
		for j := range xr {
			dr[j] = inv * (dxhat[j] - sumDxhat/n - xhat[j]*sumDxhatXhat/n)
		}
	}
	return dx
}

// geluBackward applies the tanh-approximation derivative elementwise.
func geluBackward(pre *tensor.Matrix, dy *tensor.Matrix) *tensor.Matrix {
	const c = 0.7978845608028654
	dx := tensor.New(pre.Rows, pre.Cols)
	for i, x := range pre.Data {
		u := c * (x + 0.044715*x*x*x)
		t := math.Tanh(u)
		du := c * (1 + 3*0.044715*x*x)
		dx.Data[i] = dy.Data[i] * (0.5*(1+t) + 0.5*x*(1-t*t)*du)
	}
	return dx
}

// layerBackward backpropagates through one decoder layer.
func (m *Model) layerBackward(li int, lt *layerTape, dOut *tensor.Matrix, gi *gradIndex) (*tensor.Matrix, error) {
	l := m.Layers[li]
	// dOut flows into fc2-output and (via residual) resid2.
	dFc2 := dOut
	dResid2 := dOut.Clone()
	dGelu, err := linearBackward(lt.gelu, l.fc2.master, dFc2, gi.buf(gi.linW(li, 5)), gi.buf(gi.linB(li, 5)))
	if err != nil {
		return nil, err
	}
	dFc1 := geluBackward(lt.fc1Out, dGelu)
	dLn2Out, err := linearBackward(lt.ln2Out, l.fc1.master, dFc1, gi.buf(gi.linW(li, 4)), gi.buf(gi.linB(li, 4)))
	if err != nil {
		return nil, err
	}
	dResidFromLN2 := layerNormBackward(lt.resid2, l.ln2g, dLn2Out, gi.buf(gi.ln(li, 2)), gi.buf(gi.ln(li, 3)))
	if err := dResid2.Add(dResidFromLN2); err != nil {
		return nil, err
	}
	// resid2 = xIn + woOut.
	dWoOut := dResid2
	dXin := dResid2.Clone()
	dCtx, err := linearBackward(lt.ctx, l.wo.master, dWoOut, gi.buf(gi.linW(li, 3)), gi.buf(gi.linB(li, 3)))
	if err != nil {
		return nil, err
	}
	// Attention backward per head.
	nh := m.Cfg.Heads
	dh := m.Cfg.Hidden / nh
	sLen := lt.ctx.Rows
	scale := 1 / math.Sqrt(float64(dh))
	dQ := tensor.New(sLen, m.Cfg.Hidden)
	dK := tensor.New(sLen, m.Cfg.Hidden)
	dV := tensor.New(sLen, m.Cfg.Hidden)
	for h := 0; h < nh; h++ {
		dCtxH := headSlice(dCtx, h, dh)
		kh := headSlice(lt.k, h, dh)
		vh := headSlice(lt.v, h, dh)
		qh := headSlice(lt.q, h, dh)
		probs := lt.probs[h]
		// ctx_h = probs · v_h.
		dProbs, err := tensor.MatMulT(dCtxH, vh)
		if err != nil {
			return nil, err
		}
		dVh, err := tensor.MatMulAT(probs, dCtxH)
		if err != nil {
			return nil, err
		}
		// Softmax backward: ds = p ⊙ (dp − Σ_j dp_j p_j).
		dScores := tensor.New(sLen, sLen)
		for i := 0; i < sLen; i++ {
			pr := probs.Row(i)
			dpr := dProbs.Row(i)
			var dot float64
			for j := range pr {
				dot += dpr[j] * pr[j]
			}
			dsr := dScores.Row(i)
			for j := range pr {
				dsr[j] = pr[j] * (dpr[j] - dot)
			}
		}
		dScores.Scale(scale)
		// scores = q·kᵀ (pre-scale folded above).
		dQh, err := tensor.MatMul(dScores, kh)
		if err != nil {
			return nil, err
		}
		dKh, err := tensor.MatMulAT(dScores, qh)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sLen; i++ {
			copy(dQ.Row(i)[h*dh:(h+1)*dh], dQh.Row(i))
			copy(dK.Row(i)[h*dh:(h+1)*dh], dKh.Row(i))
			copy(dV.Row(i)[h*dh:(h+1)*dh], dVh.Row(i))
		}
	}
	dLn1A, err := linearBackward(lt.ln1Out, l.wq.master, dQ, gi.buf(gi.linW(li, 0)), gi.buf(gi.linB(li, 0)))
	if err != nil {
		return nil, err
	}
	dLn1B, err := linearBackward(lt.ln1Out, l.wk.master, dK, gi.buf(gi.linW(li, 1)), gi.buf(gi.linB(li, 1)))
	if err != nil {
		return nil, err
	}
	dLn1C, err := linearBackward(lt.ln1Out, l.wv.master, dV, gi.buf(gi.linW(li, 2)), gi.buf(gi.linB(li, 2)))
	if err != nil {
		return nil, err
	}
	if err := dLn1A.Add(dLn1B); err != nil {
		return nil, err
	}
	if err := dLn1A.Add(dLn1C); err != nil {
		return nil, err
	}
	dXinFromLN1 := layerNormBackward(lt.xIn, l.ln1g, dLn1A, gi.buf(gi.ln(li, 0)), gi.buf(gi.ln(li, 1)))
	if err := dXin.Add(dXinFromLN1); err != nil {
		return nil, err
	}
	return dXin, nil
}

// Step runs one Adam update over a mini-batch of sequences and returns the
// mean loss.
func (tr *Trainer) Step(batch [][]int) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("nn: empty training batch")
	}
	m := tr.Model
	g := m.zeroGrads()
	var loss float64
	for _, seq := range batch {
		l, err := m.lossAndGrads(seq, g)
		if err != nil {
			return 0, err
		}
		loss += l
	}
	loss /= float64(len(batch))
	inv := 1 / float64(len(batch))
	st := tr.state
	st.step++
	const (
		b1, b2, eps = 0.9, 0.999, 1e-8
	)
	c1 := 1 - math.Pow(b1, float64(st.step))
	c2 := 1 - math.Pow(b2, float64(st.step))
	for pi, p := range st.params {
		gb := g.bufs[pi]
		mb := st.m[pi]
		vb := st.v[pi]
		for j := range p {
			grad := gb[j] * inv
			mb[j] = b1*mb[j] + (1-b1)*grad
			vb[j] = b2*vb[j] + (1-b2)*grad*grad
			p[j] -= tr.LR * (mb[j] / c1) / (math.Sqrt(vb[j]/c2) + eps)
		}
	}
	// Working copies must follow the updated masters.
	for _, l := range m.Layers {
		for _, lin := range l.linears() {
			lin.work = lin.master.Clone()
		}
	}
	return loss, nil
}

// MarkovCorpus generates training text from a sparse first-order Markov
// chain over the vocabulary (every token has a handful of likely
// successors), giving the model real structure to learn. The chain's
// conditional entropy is far below ln(V), so a trained model's CE
// separates cleanly from an untrained one's.
func MarkovCorpus(vocab, sequences, length int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	const successors = 4
	next := make([][]int, vocab)
	for t := 0; t < vocab; t++ {
		for k := 0; k < successors; k++ {
			next[t] = append(next[t], rng.Intn(vocab))
		}
	}
	out := make([][]int, sequences)
	for s := range out {
		seq := make([]int, length)
		seq[0] = rng.Intn(vocab)
		for i := 1; i < length; i++ {
			opts := next[seq[i-1]]
			seq[i] = opts[rng.Intn(len(opts))]
		}
		out[s] = seq
	}
	return out
}
