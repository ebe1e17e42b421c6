package experiments

import (
	"testing"
)

func TestExtSchemesOrdering(t *testing.T) {
	_, rows, err := ExtSchemes()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRows(t, "ext_schemes", rows)
	get := func(scheme string, bits int) float64 {
		for _, r := range rows {
			if r.Scheme == scheme && r.Bits == bits {
				return r.PPL
			}
		}
		t.Fatalf("missing %s@%d", scheme, bits)
		return 0
	}
	for _, bits := range []int{4, 3} {
		pt := get("per-tensor", bits)
		pc := get("per-channel", bits)
		gw := get("group-wise/16", bits)
		if !(gw < pc && pc < pt) {
			t.Errorf("%d-bit: expected group-wise < per-channel < per-tensor, got %.3f / %.3f / %.3f", bits, gw, pc, pt)
		}
	}
	// Group-wise 4-bit should approach FP16.
	fp16 := get("fp16", 16)
	gw4 := get("group-wise/16", 4)
	pt4 := get("per-tensor", 4)
	if (gw4 - fp16) > 0.5*(pt4-fp16) {
		t.Errorf("group-wise should recover ≥50%% of the 4-bit loss: fp16 %.3f gw %.3f pt %.3f", fp16, gw4, pt4)
	}
}

func TestExtLoaderShape(t *testing.T) {
	_, rows, err := ExtLoader()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("%d rows", len(rows))
	}
	mono := rows[0] // whole shard
	var best LoaderRow
	best = rows[1]
	for _, r := range rows[1:] {
		if r.LoadSec < best.LoadSec {
			best = r
		}
	}
	if best.LoadSec >= mono.LoadSec {
		t.Errorf("chunked loading %.2fs should beat monolithic %.2fs", best.LoadSec, mono.LoadSec)
	}
	if best.PeakDRAM >= mono.PeakDRAM/5 {
		t.Errorf("chunked DRAM %.2fGB should be far below monolithic %.2fGB", best.PeakDRAM/1e9, mono.PeakDRAM/1e9)
	}
}

func TestExtTPShape(t *testing.T) {
	_, rows, err := ExtTP()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// TP search includes the identity mesh: never worse.
		if r.TokS < r.BaseTokS*0.999 {
			t.Errorf("%s: TP search %.2f tok/s worse than pipeline-only %.2f", r.Cluster, r.TokS, r.BaseTokS)
		}
	}
	// The deep-pipeline pathology must pick a TP degree > 1.
	deep := rows[1]
	allOne := true
	for _, d := range deep.Degrees {
		if d > 1 {
			allOne = false
		}
	}
	if allOne {
		t.Errorf("deep pipeline should choose TP>1, got %v", deep.Degrees)
	}
}

func TestExtTrainedOrdering(t *testing.T) {
	_, rows, err := ExtTrained()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRows(t, "ext_trained", rows)
	get := func(s string) QualityRow {
		for _, r := range rows {
			if r.Scheme == s {
				return r
			}
		}
		t.Fatalf("missing %s", s)
		return QualityRow{}
	}
	fp16, int8, int4, int3 := get("fp16"), get("int8"), get("int4"), get("int3")
	mix := get("mixed4-8")
	// The model must actually be trained: PPL far below uniform (=vocab).
	if fp16.PPL > float64(TrainedCfg.Vocab)/4 {
		t.Fatalf("trained PPL %.2f too close to chance %d — training failed", fp16.PPL, TrainedCfg.Vocab)
	}
	if !(int8.PPL <= int4.PPL && int4.PPL <= int3.PPL) {
		t.Errorf("ordering broken: 8→%.3f 4→%.3f 3→%.3f", int8.PPL, int4.PPL, int3.PPL)
	}
	// INT8 near-lossless on learned structure.
	if int8.Acc < 0.95 {
		t.Errorf("trained INT8 agreement %.2f should be near 1", int8.Acc)
	}
	// Mixed between its endpoints (with slack).
	lo, hi := min2(int8.PPL, int4.PPL), max2(int8.PPL, int4.PPL)
	slack := (hi - lo) * 0.35
	if mix.PPL < lo-slack || mix.PPL > hi+slack {
		t.Errorf("mixed4-8 PPL %.3f outside [%.3f, %.3f]", mix.PPL, lo, hi)
	}
}

func TestExtKVCacheImprovesBothAxes(t *testing.T) {
	_, rows, err := ExtKVCache()
	if err != nil {
		t.Fatal(err)
	}
	byCluster := map[int]map[int]KVRow{}
	for _, r := range rows {
		if byCluster[r.Cluster] == nil {
			byCluster[r.Cluster] = map[int]KVRow{}
		}
		byCluster[r.Cluster][r.KVBits] = r
	}
	for cid, m := range byCluster {
		fp16, int8 := m[16], m[8]
		if int8.TokS < fp16.TokS*0.999 {
			t.Errorf("cluster %d: INT8 KV throughput %.2f should not trail FP16 KV %.2f", cid, int8.TokS, fp16.TokS)
		}
		if int8.OmegaSum > fp16.OmegaSum+1e-9 {
			t.Errorf("cluster %d: INT8 KV should free memory for better weights: ω %.4f vs %.4f", cid, int8.OmegaSum, fp16.OmegaSum)
		}
	}
}

func TestExtBucketsWin(t *testing.T) {
	_, rows, err := ExtBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	padAll, bucketed := rows[0], rows[1]
	if bucketed.TokPerSec <= padAll.TokPerSec*1.2 {
		t.Errorf("bucketed planning %.1f tok/s should clearly beat pad-to-max %.1f (§2.1 length spread)",
			bucketed.TokPerSec, padAll.TokPerSec)
	}
}

func TestExtOnlineCrossover(t *testing.T) {
	_, pts, err := ExtOnline()
	if err != nil {
		t.Fatal(err)
	}
	get := func(bits int, arrival float64) (float64, bool) {
		for _, p := range pts {
			if p.Bits == bits && p.Arrival == arrival {
				return p.Stats.Throughput, true
			}
		}
		return 0, false
	}
	hi4, ok := get(4, 24)
	if !ok {
		t.Fatal("missing INT4 high-load point")
	}
	hi8, ok := get(8, 24)
	if !ok {
		t.Fatal("missing INT8 high-load point")
	}
	// Under heavy load the KV-richest precision should not lose badly.
	if hi4 < hi8*0.7 {
		t.Errorf("INT4 %.1f tok/s collapses vs INT8 %.1f at high load", hi4, hi8)
	}
	// KV capacities must be ordered by precision.
	var kv4, kv8 int
	for _, p := range pts {
		if p.Arrival == 24 {
			if p.Bits == 4 {
				kv4 = p.Stats.KVCapacityTok
			}
			if p.Bits == 8 {
				kv8 = p.Stats.KVCapacityTok
			}
		}
	}
	if kv4 <= kv8 {
		t.Errorf("INT4 should free more KV: %d vs %d tokens", kv4, kv8)
	}
}
