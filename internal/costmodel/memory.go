// Package costmodel implements the paper's two cost models (§4.1):
//
//   - an analytical memory model that predicts GPU memory occupation of a
//     model shard under a mixed-precision plan (weights + reserved KV cache
//   - peak temporary memory + embedding/LM-head extras), and
//   - a latency cost model: per-(device, precision, phase) linear
//     regressions on FLOPs/MOPs features, fitted to profiler samples.
//
// Fig 7 of the paper validates both against the real system; our
// experiments do the same against the roofline ground truth.
package costmodel

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/profiler"
)

// MemoryInput describes one pipeline stage's contents for the memory model.
type MemoryInput struct {
	Cfg         model.Config
	LayerBits   []int // bitwidth of each decoder layer on this stage
	GlobalBatch int   // total requests resident (KV is reserved for all)
	MaxSeq      int   // prompt + max generated tokens (KV reservation)
	// MicroBatch is the largest micro-batch that transits the stage; peak
	// temporary memory scales with it (the paper's cluster-1 observation:
	// micro-batch sizing reduces peak temporary memory).
	MicroBatch int
	PromptLen  int
	First      bool // holds the embedding table
	Last       bool // holds the LM head
	// KVBits is the KV-cache precision; 0 defaults to FP16.
	KVBits int
}

func (in MemoryInput) kvBits() int {
	if in.KVBits == 0 {
		return profiler.KVBits
	}
	return in.KVBits
}

// Validate checks the input.
func (in MemoryInput) Validate() error {
	if len(in.LayerBits) == 0 {
		return fmt.Errorf("costmodel: stage with no layers")
	}
	for _, b := range in.LayerBits {
		switch b {
		case 3, 4, 8, 16:
		default:
			return fmt.Errorf("costmodel: unsupported bitwidth %d", b)
		}
	}
	if in.GlobalBatch <= 0 || in.MaxSeq <= 0 || in.MicroBatch <= 0 || in.PromptLen <= 0 {
		return fmt.Errorf("costmodel: nonpositive workload fields in %+v", in)
	}
	return nil
}

// MemoryBreakdown itemizes predicted stage memory in bytes.
type MemoryBreakdown struct {
	Weights float64
	KVCache float64
	Temp    float64
	Embed   float64
	Total   float64
}

// StageMemory predicts the peak memory occupation of one stage.
func StageMemory(in MemoryInput) (MemoryBreakdown, error) {
	if err := in.Validate(); err != nil {
		return MemoryBreakdown{}, err
	}
	var br MemoryBreakdown
	for _, bits := range in.LayerBits {
		br.Weights += in.Cfg.LayerWeightBytes(bits)
		br.KVCache += in.Cfg.KVBytesPerLayer(in.GlobalBatch, in.MaxSeq, in.kvBits())
	}
	br.Temp = peakTemp(in.Cfg, in.MicroBatch, in.PromptLen)
	if in.First {
		br.Embed += in.Cfg.EmbedBytes()
	}
	if in.Last {
		br.Embed += in.Cfg.LMHeadBytes()
		if in.Cfg.TiedEmbed && !in.First {
			// Tied weights still need a resident copy on the tail stage.
			br.Embed += float64(in.Cfg.VocabSize) * float64(in.Cfg.Hidden) * 2
		}
	}
	br.Total = br.Weights + br.KVCache + br.Temp + br.Embed
	return br, nil
}

// peakTemp is the worst-case temporary buffer demand of one decoder layer
// during prefill (§4.1 "Peak Temporary Memory ... worst-case scenario"):
// activation working set plus the attention score matrix, which scales with
// micro-batch × heads × prompt².
func peakTemp(cfg model.Config, microBatch, prompt int) float64 {
	b := float64(microBatch)
	s := float64(prompt)
	h := float64(cfg.Hidden)
	f := float64(cfg.FFN)
	// Residual + QKV + MLP intermediate buffers (FP16).
	act := b * s * (6*h + f) * 2
	// Attention probability matrix per head batch.
	scores := b * float64(cfg.Heads) * s * s * 2
	// Framework allocator slack.
	return (act + scores) * 1.15
}
