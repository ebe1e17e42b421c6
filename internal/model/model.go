// Package model describes the decoder-only transformer families the paper
// evaluates (OPT and BLOOM) at the metadata level: layer shapes, parameter
// counts, and per-phase FLOP/memory-traffic accounting.
//
// LLM-PQ's assigner never touches real weights of the big models; every
// planning decision is a function of these shapes (paper §4.1). The small
// reference models (used for quality measurement) are realized as actual
// networks in internal/nn using the same configs.
package model

import (
	"fmt"
	"sort"
)

// Family identifies a model family with a shared architecture.
type Family string

const (
	// OPT is Meta's Open Pre-trained Transformer family.
	OPT Family = "opt"
	// BLOOM is the BigScience multilingual family.
	BLOOM Family = "bloom"
)

// Config is the architectural metadata of a decoder-only LLM.
//
// All decoder layers of one model are identical in shape; this is the
// property the assigner's structured solver exploits (DESIGN.md §5.1).
type Config struct {
	Name      string // e.g. "opt-30b"
	Family    Family
	Hidden    int // hidden dimension h1
	FFN       int // feed-forward inner dimension (4*Hidden for OPT/BLOOM)
	Layers    int // number of decoder layers L
	Heads     int // attention heads
	VocabSize int // vocabulary size
	MaxPosEmb int // maximum position embeddings
	TiedEmbed bool
}

// LayerParams returns the parameter count of one decoder layer:
// QKV + output projections (4·h²), the two MLP matrices (2·h·ffn),
// their biases, and two LayerNorms.
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	f := int64(c.FFN)
	attn := 4*h*h + 4*h  // QKV+O weights and biases
	mlp := 2*h*f + f + h // fc1, fc2 weights and biases
	ln := 2 * (2 * h)    // two LayerNorms, weight+bias
	return attn + mlp + ln
}

// EmbedParams returns the parameter count of the embedding block:
// token embeddings plus (learned) position embeddings plus the final
// LayerNorm. BLOOM uses ALiBi rather than learned positions; we keep the
// token-embedding-dominated count, which is what the memory model needs.
func (c Config) EmbedParams() int64 {
	tok := int64(c.VocabSize) * int64(c.Hidden)
	pos := int64(c.MaxPosEmb) * int64(c.Hidden)
	if c.Family == BLOOM {
		pos = 0
	}
	lnf := int64(2 * c.Hidden)
	return tok + pos + lnf
}

// TotalParams returns the full parameter count.
func (c Config) TotalParams() int64 {
	n := c.EmbedParams() + int64(c.Layers)*c.LayerParams()
	if !c.TiedEmbed {
		// separate LM head projection
		n += int64(c.VocabSize) * int64(c.Hidden)
	}
	return n
}

// PhaseShape describes one inference step's input shape.
type PhaseShape struct {
	Batch   int // micro-batch size
	Prompt  int // prompt length v (prefill) — tokens processed this step
	Context int // past KV length (decode); 0 during prefill
}

// LayerFLOPs returns the floating-point operations of one decoder layer for
// the given shape. Prefill processes Prompt tokens at once; decode processes
// one token attending over Context+1 positions.
func (c Config) LayerFLOPs(sh PhaseShape, prefill bool) float64 {
	h := float64(c.Hidden)
	f := float64(c.FFN)
	b := float64(sh.Batch)
	var tokens, attnSpan float64
	if prefill {
		tokens = float64(sh.Prompt)
		attnSpan = float64(sh.Prompt)
	} else {
		tokens = 1
		attnSpan = float64(sh.Context + 1)
	}
	// Projections: QKV+O = 4 matmuls of [tokens,h]x[h,h] → 2*4*tokens*h^2.
	proj := 8 * b * tokens * h * h
	// Attention scores + context mix: 2 * (2 * tokens * attnSpan * h).
	attn := 4 * b * tokens * attnSpan * h
	// MLP: two matmuls [tokens,h]x[h,f] → 2*2*tokens*h*f.
	mlp := 4 * b * tokens * h * f
	return proj + attn + mlp
}

// LayerWeightBytes returns the bytes of one decoder layer's weights at the
// given bitwidth (weight-only quantization; norms/biases stay FP16).
func (c Config) LayerWeightBytes(bits int) float64 {
	h := float64(c.Hidden)
	f := float64(c.FFN)
	linear := 4*h*h + 2*h*f // quantizable linear weights
	rest := 4*h + f + h + 4*h
	return linear*float64(bits)/8 + rest*2
}

// LayerMOPs returns the memory traffic in bytes of one decoder layer:
// weight reads (at the layer's bitwidth), KV-cache reads/writes, and
// activation traffic. This is the memory-bound side of the roofline that
// dominates the decode phase (paper §4.1: decode arithmetic intensity ≈43–48
// vs ≈6000–9500 for prefill).
func (c Config) LayerMOPs(sh PhaseShape, prefill bool, bits int, kvBits int) float64 {
	h := float64(c.Hidden)
	b := float64(sh.Batch)
	w := c.LayerWeightBytes(bits)
	kvElem := float64(kvBits) / 8
	var kv, act float64
	if prefill {
		s := float64(sh.Prompt)
		kv = 2 * b * s * h * kvElem // write K,V
		act = 8 * b * s * h * 2     // activations in/out FP16-ish
	} else {
		ctx := float64(sh.Context + 1)
		kv = 2*b*ctx*h*kvElem + 2*b*h*kvElem // read all past K,V + write new
		act = 8 * b * h * 2
	}
	return w + kv + act
}

// KVBytesPerLayer returns the KV-cache bytes one layer holds for a batch
// with maximum sequence length maxSeq (prompt + generated), at kvBits.
func (c Config) KVBytesPerLayer(batch, maxSeq, kvBits int) float64 {
	return 2 * float64(batch) * float64(maxSeq) * float64(c.Hidden) * float64(kvBits) / 8
}

// EmbedBytes returns the bytes of the embedding block (kept in FP16: the
// paper quantizes only decoder-layer linear weights).
func (c Config) EmbedBytes() float64 { return float64(c.EmbedParams()) * 2 }

// LMHeadBytes returns the bytes of the output projection (FP16).
func (c Config) LMHeadBytes() float64 {
	if c.TiedEmbed {
		return 0
	}
	return float64(c.VocabSize) * float64(c.Hidden) * 2
}

var registry = map[string]Config{}

func register(c Config) Config {
	registry[c.Name] = c
	return c
}

// Predefined model configurations (real published shapes).
var (
	OPT125M = register(Config{Name: "opt-125m", Family: OPT, Hidden: 768, FFN: 3072, Layers: 12, Heads: 12, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})
	OPT1B3  = register(Config{Name: "opt-1.3b", Family: OPT, Hidden: 2048, FFN: 8192, Layers: 24, Heads: 32, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})
	OPT13B  = register(Config{Name: "opt-13b", Family: OPT, Hidden: 5120, FFN: 20480, Layers: 40, Heads: 40, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})
	OPT30B  = register(Config{Name: "opt-30b", Family: OPT, Hidden: 7168, FFN: 28672, Layers: 48, Heads: 56, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})
	OPT66B  = register(Config{Name: "opt-66b", Family: OPT, Hidden: 9216, FFN: 36864, Layers: 64, Heads: 72, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})
	OPT175B = register(Config{Name: "opt-175b", Family: OPT, Hidden: 12288, FFN: 49152, Layers: 96, Heads: 96, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true})

	BLOOM560M = register(Config{Name: "bloom-560m", Family: BLOOM, Hidden: 1024, FFN: 4096, Layers: 24, Heads: 16, VocabSize: 250880, MaxPosEmb: 2048, TiedEmbed: true})
	BLOOM1B7  = register(Config{Name: "bloom-1b7", Family: BLOOM, Hidden: 2048, FFN: 8192, Layers: 24, Heads: 16, VocabSize: 250880, MaxPosEmb: 2048, TiedEmbed: true})
	BLOOM3B   = register(Config{Name: "bloom-3b", Family: BLOOM, Hidden: 2560, FFN: 10240, Layers: 30, Heads: 32, VocabSize: 250880, MaxPosEmb: 2048, TiedEmbed: true})
	BLOOM176B = register(Config{Name: "bloom-176b", Family: BLOOM, Hidden: 14336, FFN: 57344, Layers: 70, Heads: 112, VocabSize: 250880, MaxPosEmb: 2048, TiedEmbed: true})
)

// ByName returns a registered config.
func ByName(name string) (Config, error) {
	c, ok := registry[name]
	if !ok {
		return Config{}, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	return c, nil
}

// Names lists registered model names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
