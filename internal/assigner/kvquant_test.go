package assigner

import (
	"testing"

	"repro/internal/indicator"
)

func TestKVQuantValidation(t *testing.T) {
	s := tinySpec(MethodDP, 1, 2, 2)
	s.KVBits = 4
	if err := s.Validate(); err == nil {
		t.Error("expected KV precision error for 4-bit KV")
	}
	s.KVBits = 8
	if err := s.Validate(); err != nil {
		t.Errorf("8-bit KV should validate: %v", err)
	}
}

func TestKVQuantHalvesKVMemory(t *testing.T) {
	s16 := tinySpec(MethodDP, 1, 2, 2)
	s8 := tinySpec(MethodDP, 1, 2, 2)
	s8.KVBits = 8
	t16, err := BuildTables(s16, ProfilerTimer{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := BuildTables(s8, ProfilerTimer{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// GroupMem = weights + KV: the KV half shrinks 2x.
	bi := bitIndexIn(t16.Spec.Bits, 16)
	w := s16.Cfg.LayerWeightBytes(16)
	kv16 := t16.GroupMem[bi] - w
	kv8 := t8.GroupMem[bi] - w
	if kv8 <= kv16/2*0.99 || kv8 >= kv16/2*1.01 {
		t.Errorf("INT8 KV should halve KV bytes: %.0f vs %.0f", kv8, kv16)
	}
	// Decode is memory-bound; less KV traffic → faster decode.
	if t8.TDec[0][bi] >= t16.TDec[0][bi] {
		t.Errorf("INT8 KV decode %.5g should beat FP16 KV %.5g", t8.TDec[0][bi], t16.TDec[0][bi])
	}
}

func TestKVQuantEnablesHigherWeightBits(t *testing.T) {
	// With tight memory, halving the KV reservation leaves room for higher
	// weight precisions — better ω at equal or better latency.
	mk := func(kv int) *Result {
		s := tinySpec(MethodDP, 5, 1.2, 0.9)
		s.KVBits = kv
		s.Omega = normalizeTest(s.Omega)
		res, err := Optimize(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fp16 := mk(16)
	int8 := mk(8)
	if int8.Eval.OmegaSum > fp16.Eval.OmegaSum+1e-9 {
		t.Errorf("INT8 KV should allow better quality: ω %.4f vs %.4f", int8.Eval.OmegaSum, fp16.Eval.OmegaSum)
	}
	if int8.Eval.Objective > fp16.Eval.Objective+1e-9 {
		t.Errorf("INT8 KV objective %.4f should not be worse than %.4f", int8.Eval.Objective, fp16.Eval.Objective)
	}
}

func normalizeTest(o indicator.Omega) indicator.Omega {
	var total float64
	for l := 0; l < o.Layers(); l++ {
		v, _ := o.At(l, 4)
		total += v
	}
	out := indicator.Omega{Bits: o.Bits}
	for l := 0; l < o.Layers(); l++ {
		row := make([]float64, len(o.Bits))
		for bi := range o.Bits {
			row[bi] = o.Values[l][bi] / total
		}
		out.Values = append(out.Values, row)
	}
	return out
}
