package experiments

import (
	"fmt"

	"repro/internal/assigner"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/loader"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/online"
	"repro/internal/quality"
	"repro/internal/quant"
	"repro/internal/tp"
)

// The paper's §5 implementation notes and §7 discussion describe four
// extensions; each gets an experiment here (DESIGN.md lists them as
// optional-feature reproductions):
//
//	ExtSchemes — newer weight-only schemes (AWQ/SpQR-style fine scales)
//	ExtLoader  — the on-the-fly quantizer's loading/DRAM/recovery wins
//	ExtTP      — tensor-parallelism search over device meshes
//	ExtOnline  — the online-serving speed-vs-KV-memory trade-off

// SchemeRow is one quantization-scheme quality measurement.
type SchemeRow struct {
	Scheme string
	Bits   int
	PPL    float64
	Acc    float64
}

// ExtSchemes measures per-tensor vs per-channel vs group-wise 4-bit and
// 3-bit quality on the reference model (§7 "Other Quantization Schemes").
func ExtSchemes() (*Table, []SchemeRow, error) {
	ref, err := quality.NewReference(nn.TinyOPT, OmegaSeed, 6, 48)
	if err != nil {
		return nil, nil, err
	}
	var rows []SchemeRow
	fp16, err := ref.Measure(quality.UniformBits(nn.TinyOPT.Layers, 16))
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, SchemeRow{Scheme: "fp16", Bits: 16, PPL: fp16.PPL, Acc: fp16.Accuracy})
	for _, bits := range []int{4, 3} {
		for _, sc := range []struct {
			name   string
			scheme quant.Scheme
			group  int
		}{
			{"per-tensor", quant.PerTensor, 0},
			{"per-channel", quant.PerChannel, 0},
			{"group-wise/16", quant.GroupWise, 16},
		} {
			res, err := ref.MeasureScheme(bits, sc.scheme, sc.group)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, SchemeRow{Scheme: sc.name, Bits: bits, PPL: res.PPL, Acc: res.Accuracy})
		}
	}
	t := &Table{
		ID: "ext-schemes", Title: "Fine-grained quantization schemes (§7): quality at equal bits",
		Header: []string{"Scheme", "Bits", "PPL", "Agreement acc"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Scheme, fmt.Sprint(r.Bits), f(r.PPL, 3), f(r.Acc*100, 1) + "%"})
	}
	t.Notes = append(t.Notes, "group-wise < per-channel < per-tensor PPL at the same bitwidth: the AWQ/SpQR effect, measured with real forward passes")
	return t, rows, nil
}

// LoaderRow is one loading-granularity measurement.
type LoaderRow struct {
	ChunkMB  float64
	LoadSec  float64
	PeakDRAM float64
}

// ExtLoader reproduces the §5 on-the-fly quantizer claims on an OPT-66b
// stage shard: loading time and host DRAM vs granularity, plus recovery
// time for one failed stage.
func ExtLoader() (*Table, []LoaderRow, error) {
	cfg := model.OPT66B
	var shard float64
	for i := 0; i < cfg.Layers/4; i++ { // one stage of a 4-stage deployment
		shard += cfg.LayerWeightBytes(16)
	}
	var rows []LoaderRow
	t := &Table{
		ID: "ext-loader", Title: "On-the-fly quantized loading (§5): OPT-66b stage shard (16 layers, FP16 on disk)",
		Header: []string{"Chunk", "Load(s)", "Peak host DRAM"},
	}
	for _, chunkMB := range []float64{0, 4096, 1024, 256, 64, 16} {
		chunk := chunkMB * 1e6
		var p loader.Plan
		var err error
		if chunkMB == 0 {
			p, err = loader.Monolithic(loader.DefaultResources, shard)
		} else {
			p, err = loader.Load(loader.DefaultResources, shard, chunk)
		}
		if err != nil {
			return nil, nil, err
		}
		label := "whole shard"
		if chunkMB > 0 {
			label = fmt.Sprintf("%.0f MB", chunkMB)
		}
		rows = append(rows, LoaderRow{ChunkMB: chunkMB, LoadSec: p.LoadTime, PeakDRAM: p.PeakDRAM})
		t.Rows = append(t.Rows, []string{label, f(p.LoadTime, 2), fmt.Sprintf("%.2f GB", p.PeakDRAM/1e9)})
	}
	rec, err := loader.RecoveryTime(loader.DefaultResources, shard, 256e6)
	if err != nil {
		return nil, nil, err
	}
	full := shard * 4
	recFull, err := loader.RecoveryTime(loader.DefaultResources, full, 256e6)
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-stage recovery %.1fs vs full-model reload %.1fs (the §5 recovery claim)", rec, recFull),
		"module-level chunks cut host DRAM by ~100x while overlap keeps loading at the disk bound")
	return t, rows, nil
}

// TPRow is one tensor-parallel search outcome.
type TPRow struct {
	Cluster  string
	BestMesh string
	Degrees  []int
	TokS     float64
	BaseTokS float64 // pipeline-only (identity mesh)
}

// ExtTP runs the §7 tensor-parallelism search on two settings: the
// Table 3 cluster 10 (where pure pipeline is already fine) and a
// deep-pipeline pathology (8 devices, shallow model) where TP must win.
func ExtTP() (*Table, []TPRow, error) {
	var rows []TPRow
	add := func(name string, s *assigner.Spec) error {
		base, err := assigner.Optimize(s, nil)
		if err != nil {
			return err
		}
		clone := *s
		res, err := tp.Optimize(&clone, nil)
		if err != nil {
			return err
		}
		rows = append(rows, TPRow{
			Cluster: name, BestMesh: res.Mesh.Desc, Degrees: res.Mesh.Degrees,
			TokS: res.Eval.Throughput, BaseTokS: base.Eval.Throughput,
		})
		return nil
	}
	s10, err := SpecFor(10, DefaultWork)
	if err != nil {
		return nil, nil, err
	}
	s10.PrefillMicroBatches = []int{1, 4}
	if err := add("cluster-10 (4xV100, opt-66b)", s10); err != nil {
		return nil, nil, err
	}
	small := model.Config{Name: "opt-13b", Family: model.OPT, Hidden: 5120, FFN: 20480,
		Layers: 12, Heads: 40, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true}
	cl, err := hardware.NewCluster([]string{"V100"}, []int{8}, hardware.Eth100Gbps, "deep")
	if err != nil {
		return nil, nil, err
	}
	deep := &assigner.Spec{
		Cfg: small, Cluster: cl,
		Work:                DefaultWork,
		Bits:                Bits,
		Omega:               mustNormalizedSynthetic(small),
		Theta:               1,
		Method:              assigner.MethodDP,
		PrefillMicroBatches: []int{1, 4},
	}
	if err := add("8xV100, 12-layer model (deep-pipeline pathology)", deep); err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID: "ext-tp", Title: "Tensor-parallelism search (§7): best mesh vs pipeline-only",
		Header: []string{"Setting", "Best mesh", "Tok/s", "Pipeline-only tok/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cluster, r.BestMesh, f(r.TokS, 2), f(r.BaseTokS, 2)})
	}
	t.Notes = append(t.Notes, "TP groups are planned as fused devices over the same 1-D partition — exactly the paper's §7 construction")
	return t, rows, nil
}

func mustNormalizedSynthetic(cfg model.Config) indicator.Omega {
	om, err := indicator.Synthetic(cfg, Bits, OmegaSeed).Normalize()
	if err != nil {
		panic(err)
	}
	return om
}

// TrainedCfg is the reference configuration used for trained-model quality
// experiments (small enough to train in seconds on CPU, structured enough
// to show real quantization behaviour).
var TrainedCfg = nn.Config{Vocab: 48, Hidden: 32, FFN: 128, Layers: 4, Heads: 4, MaxSeq: 48, SensitivitySlope: 1}

// ExtTrained re-runs the Fig-4 quality comparison on a model TRAINED with
// real backpropagation (gradients verified against finite differences in
// internal/nn tests) — quantization damage on learned structure rather
// than on random weights.
func ExtTrained() (*Table, []QualityRow, error) {
	ref, err := quality.NewTrainedReference(TrainedCfg, OmegaSeed, 200)
	if err != nil {
		return nil, nil, err
	}
	L := TrainedCfg.Layers
	var rows []QualityRow
	for _, sc := range []struct {
		name string
		bits []int
	}{
		{"fp16", quality.UniformBits(L, 16)},
		{"int8", quality.UniformBits(L, 8)},
		{"int4", quality.UniformBits(L, 4)},
		{"int3", quality.UniformBits(L, 3)},
		{"mixed4-8", quality.MixedBits(L, 4, 8, OmegaSeed)},
	} {
		res, err := ref.Measure(sc.bits)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, QualityRow{Model: "trained(ref)", Scheme: sc.name, PPL: res.PPL, Acc: res.Accuracy})
	}
	t := &Table{
		ID: "ext-trained", Title: "Quality vs bitwidth on a TRAINED reference model (pure-Go backprop)",
		Header: []string{"Model", "Scheme", "PPL", "Agreement acc"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Model, r.Scheme, f(r.PPL, 3), f(r.Acc*100, 1) + "%"})
	}
	t.Notes = append(t.Notes,
		"the model is trained on a Markov corpus until held-out CE ≪ ln(V); the Fig-4 orderings must hold on learned structure",
		"training: 200 Adam steps of fresh chain samples; gradients finite-difference-verified in internal/nn")
	return t, rows, nil
}

// KVRow is one KV-precision comparison.
type KVRow struct {
	Cluster  int
	KVBits   int
	TokS     float64
	PPL      float64
	OmegaSum float64
}

// ExtKVCache compares FP16 vs INT8 KV caches on the KV-heavy clusters
// (1 and 9): halving the reservation frees memory for higher weight
// precisions and shrinks decode traffic.
func ExtKVCache() (*Table, []KVRow, error) {
	var rows []KVRow
	for _, cid := range []int{1, 9} {
		for _, kv := range []int{16, 8} {
			s, err := SpecFor(cid, DefaultWork)
			if err != nil {
				return nil, nil, err
			}
			s.KVBits = kv
			res, err := assigner.Optimize(s, nil)
			if err != nil {
				return nil, nil, err
			}
			out, err := execute(s, res.Plan, fmt.Sprintf("kv%d", kv))
			if err != nil {
				return nil, nil, err
			}
			if out.OOM {
				return nil, nil, fmt.Errorf("experiments: unexpected OOM at kv=%d on cluster %d", kv, cid)
			}
			rows = append(rows, KVRow{Cluster: cid, KVBits: kv, TokS: out.Throughput, PPL: out.PPL, OmegaSum: res.Eval.OmegaSum})
		}
	}
	t := &Table{
		ID: "ext-kv", Title: "KV-cache quantization (extension): FP16 vs INT8 KV on KV-heavy clusters",
		Header: []string{"Cluster", "KV bits", "Tok/s", "PPL", "ω"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.Cluster), fmt.Sprint(r.KVBits), f(r.TokS, 2), f(r.PPL, 3), f(r.OmegaSum, 4)})
	}
	t.Notes = append(t.Notes,
		"INT8 KV halves the per-request reservation: the planner spends the freed memory on higher weight bits and larger effective batches",
		"INT8 KV near-losslessness is validated with real arithmetic on the reference transformer (internal/nn KV-quantization tests)")
	return t, rows, nil
}

// ExtOnline sweeps the §7 online-serving trade-off: precision × arrival
// rate on one V100 serving OPT-13b.
func ExtOnline() (*Table, []online.SweepPoint, error) {
	pts, err := online.Sweep(hardware.V100, model.OPT13B, []int{4, 8, 16}, []float64{0.5, 4, 24}, 48, 11)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID: "ext-online", Title: "Online serving trade-off (§7): precision vs load on 1xV100, OPT-13b",
		Header: []string{"Bits", "Arrivals/s", "Tok/s", "Mean batch", "P95 latency(s)", "KV capacity(tok)"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Bits), f(p.Arrival, 1), f(p.Stats.Throughput, 1),
			f(p.Stats.MeanBatch, 1), f(p.Stats.P95Latency, 1), fmt.Sprint(p.Stats.KVCapacityTok),
		})
	}
	t.Notes = append(t.Notes,
		"low load favours the fastest kernels; high load favours the precision that frees the most paged-KV memory",
		"FP16 OPT-13b leaves only a sliver of KV on 30GB: its batches stop growing under load and throughput collapses")
	return t, pts, nil
}
