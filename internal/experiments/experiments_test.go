package experiments

import (
	"strings"
	"testing"
)

func TestFig1Shape(t *testing.T) {
	tab, rows, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	util := map[string]float64{}
	for _, r := range rows {
		byName[r.GPUType] = r.Share
		util[r.GPUType] = r.MeanUtil
	}
	if byName["T4"] <= byName["A100-40G"] {
		t.Error("fleet should be dominated by low-calibre GPUs (Fig 1a)")
	}
	if util["A100-40G"] <= util["T4"] {
		t.Error("A100 should be far busier than T4 (Fig 1b)")
	}
	if !strings.Contains(tab.Render(), "fig1") {
		t.Error("render missing id")
	}
}

func TestFig3PhaseGap(t *testing.T) {
	_, rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var fp16 *Fig3Row
	for i := range rows {
		if rows[i].Device == "P100" && rows[i].Bits == 16 {
			fp16 = &rows[i]
		}
	}
	if fp16 == nil {
		t.Fatal("missing P100 FP16 row")
	}
	// Fig 3 annotation: the P100/V100 ratio differs sharply by phase.
	if fp16.PrefillRatioVsV100 < 2*fp16.DecodeRatioVsV100 {
		t.Errorf("prefill ratio %.2f should dwarf decode ratio %.2f", fp16.PrefillRatioVsV100, fp16.DecodeRatioVsV100)
	}
}

func TestFig4MixedBetweenUniform(t *testing.T) {
	_, rows, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRows(t, "fig4", rows)
	get := func(model, scheme string) float64 {
		for _, r := range rows {
			if r.Model == model && r.Scheme == scheme {
				return r.PPL
			}
		}
		t.Fatalf("missing %s/%s", model, scheme)
		return 0
	}
	for _, m := range []string{"opt-1.3b(ref)", "bloom-3b(ref)"} {
		fp16 := get(m, "fp16")
		int3 := get(m, "int3")
		int4 := get(m, "int4")
		int8 := get(m, "int8")
		mix48 := get(m, "mixed4-8")
		if int3 <= fp16 {
			t.Errorf("%s: INT3 PPL %.3f should exceed FP16 %.3f", m, int3, fp16)
		}
		if int4 > int3 {
			t.Errorf("%s: INT4 PPL %.3f should not exceed INT3 %.3f", m, int4, int3)
		}
		lo, hi := min2(int8, int4), max2(int8, int4)
		slack := (hi - lo) * 0.35
		if mix48 < lo-slack || mix48 > hi+slack {
			t.Errorf("%s: mixed4-8 PPL %.3f outside [%.3f, %.3f]", m, mix48, lo, hi)
		}
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestFig5FP16PrefillOftenFastest(t *testing.T) {
	_, rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// On V100 at any batch, FP16 prefill beats INT4 (dequant overhead) and
	// INT4 decode beats FP16 (memory-bound) — the §2.4 observation.
	pre := map[int]float64{}
	dec := map[int]float64{}
	for _, r := range rows {
		if r.Device == "V100" && r.Batch == 4 {
			pre[r.Bits] = r.Prefill
			dec[r.Bits] = r.Decode
		}
	}
	if pre[16] >= pre[4] {
		t.Errorf("V100 FP16 prefill %.4g should beat INT4 %.4g", pre[16], pre[4])
	}
	if dec[4] >= dec[16] {
		t.Errorf("V100 INT4 decode %.4g should beat FP16 %.4g", dec[4], dec[16])
	}
}

func TestTable1EarlierRangesHurtLess(t *testing.T) {
	_, rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRows(t, "table1", rows)
	// Per model, PPL should be non-decreasing across the three ranges.
	byModel := map[string][]float64{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r.PPL)
	}
	for m, ppls := range byModel {
		if len(ppls) != 3 {
			t.Fatalf("%s: %d ranges", m, len(ppls))
		}
		if !(ppls[0] < ppls[2]) {
			t.Errorf("%s: earliest range PPL %.3f should beat latest %.3f (Table 1)", m, ppls[0], ppls[2])
		}
	}
}

func TestFig7Fidelity(t *testing.T) {
	_, res, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range res.MemErr {
		if e > 0.02 {
			t.Errorf("%s: memory model error %.2f%% not negligible", name, e*100)
		}
	}
	for name, e := range res.LatErr {
		if e > 0.12 {
			t.Errorf("%s: latency model error %.1f%% too high (paper <6%%)", name, e*100)
		}
	}
}

func TestTable4LLMPQWinsHeterogeneous(t *testing.T) {
	_, all, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("%d clusters", len(all))
	}
	for _, sc := range all {
		pq, ok := sc.Get("LLM-PQ")
		if !ok || pq.OOM {
			t.Fatalf("cluster %d: LLM-PQ missing or OOM", sc.Cluster)
		}
		for _, other := range sc.Results {
			if other.Scheme == "LLM-PQ" || other.OOM {
				continue
			}
			if pq.Throughput < other.Throughput*0.999 {
				t.Errorf("cluster %d: LLM-PQ %.2f tok/s loses to %s %.2f",
					sc.Cluster, pq.Throughput, other.Scheme, other.Throughput)
			}
		}
		// Quality stays at or near the best baseline PPL.
		if pe, ok := sc.Get("PipeEdge"); ok && !pe.OOM {
			if pq.PPL > pe.PPL+0.3 {
				t.Errorf("cluster %d: LLM-PQ PPL %.2f much worse than PipeEdge %.2f", sc.Cluster, pq.PPL, pe.PPL)
			}
		}
	}
	avg, max, n := AverageSpeedup(all)
	if n < 6 {
		t.Fatalf("only %d comparable clusters", n)
	}
	if avg <= 1.0 {
		t.Errorf("average speedup %.2fx should exceed 1 (paper: up to 2.88x)", avg)
	}
	if max <= 1.05 {
		t.Errorf("max speedup %.2fx too small", max)
	}
}

func TestTable5HomogeneousGainsSmaller(t *testing.T) {
	_, hetero, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	_, homo, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	ha, hm, _ := AverageSpeedup(hetero)
	oa, _, n := AverageSpeedup(homo)
	if n == 0 {
		t.Fatal("no homogeneous comparisons")
	}
	// §6.4: gains still exist on homogeneous clusters. (The paper's own
	// Table 5 has cluster 9 at 2.57x — above several heterogeneous rows —
	// so we assert no regression plus existence of gains on both sides,
	// not a strict ordering.)
	if oa < 0.95 {
		t.Errorf("homogeneous speedup %.2fx should not regress", oa)
	}
	if ha <= 1.0 {
		t.Errorf("heterogeneous average speedup %.2fx should exceed 1", ha)
	}
	if hm <= 1.05 {
		t.Errorf("heterogeneous max speedup %.2fx too small", hm)
	}
}

func TestTable6IndicatorShape(t *testing.T) {
	_, rows, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	// Pin the PPLs only: Overhead is wall-clock.
	type pplRow struct {
		Method string
		PPL    float64
	}
	var ppls []pplRow
	for _, r := range rows {
		ppls = append(ppls, pplRow{r.Method, r.PPL})
	}
	checkGoldenRows(t, "table6", ppls)
	get := func(m string) Table6Row {
		for _, r := range rows {
			if r.Method == m {
				return r
			}
		}
		t.Fatalf("missing %s", m)
		return Table6Row{}
	}
	random := get("Random")
	hess := get("Hessian")
	variance := get("LLM-PQ (variance)")
	// Table 6: variance matches Hessian; random is at best tied (on the
	// paper's cluster 6 the three are within 0.02 PPL of each other, so we
	// assert a band rather than a strict win).
	if variance.PPL > random.PPL*1.005 {
		t.Errorf("variance PPL %.4f should not trail random %.4f by >0.5%%", variance.PPL, random.PPL)
	}
	if variance.PPL > hess.PPL*1.02 {
		t.Errorf("variance PPL %.4f should track Hessian %.4f (Table 6: same PPL)", variance.PPL, hess.PPL)
	}
	if hess.Overhead < 10*variance.Overhead {
		t.Errorf("Hessian overhead %v should dwarf variance %v (paper: 58-73x)", hess.Overhead, variance.Overhead)
	}
}

func TestTable7ShortPrompts(t *testing.T) {
	_, all, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range all {
		pq, ok := sc.Get("LLM-PQ")
		if !ok || pq.OOM {
			t.Fatalf("cluster %d: LLM-PQ missing", sc.Cluster)
		}
		pe, ok := sc.Get("PipeEdge")
		if ok && !pe.OOM && pq.Throughput < pe.Throughput*0.999 {
			t.Errorf("cluster %d short prompts: LLM-PQ %.2f loses to PipeEdge %.2f",
				sc.Cluster, pq.Throughput, pe.Throughput)
		}
	}
}

func TestTable8StrategyTradeoffs(t *testing.T) {
	_, rows, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	byCluster := map[int]map[string]Table8Row{}
	for _, r := range rows {
		if byCluster[r.Cluster] == nil {
			byCluster[r.Cluster] = map[string]Table8Row{}
		}
		byCluster[r.Cluster][r.Strategy] = r
	}
	for cid, m := range byCluster {
		g1, g2, heu := m["group=1"], m["group=2"], m["heuristic"]
		if g1.Throughput <= 0 || g2.Throughput <= 0 || heu.Throughput <= 0 {
			t.Fatalf("cluster %d: missing strategies", cid)
		}
		// group=2 must solve at least as fast as group=1 (smaller space).
		if g2.Overhead > g1.Overhead*2 {
			t.Errorf("cluster %d: group=2 solve %v should not exceed group=1 %v", cid, g2.Overhead, g1.Overhead)
		}
		// group=1 throughput within a sane band of group=2 (usually ≥).
		if g1.Throughput < g2.Throughput*0.85 {
			t.Errorf("cluster %d: group=1 tok/s %.2f far below group=2 %.2f", cid, g1.Throughput, g2.Throughput)
		}
	}
}

func TestFig8ThetaMonotone(t *testing.T) {
	_, rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	byCluster := map[int][]Fig8Row{}
	for _, r := range rows {
		byCluster[r.Cluster] = append(byCluster[r.Cluster], r)
	}
	for cid, rs := range byCluster {
		for i := 1; i < len(rs); i++ {
			if rs[i].PPL > rs[i-1].PPL+1e-9 {
				t.Errorf("cluster %d: PPL should not worsen as theta grows: %.3f → %.3f",
					cid, rs[i-1].PPL, rs[i].PPL)
			}
			if rs[i].Throughput > rs[i-1].Throughput*1.02 {
				t.Errorf("cluster %d: throughput should not rise as theta grows: %.2f → %.2f",
					cid, rs[i-1].Throughput, rs[i].Throughput)
			}
		}
	}
}

func TestFig9LLMPQBeatsAdabits(t *testing.T) {
	_, rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byCluster := map[int]map[string]float64{}
	for _, r := range rows {
		if byCluster[r.Cluster] == nil {
			byCluster[r.Cluster] = map[string]float64{}
		}
		byCluster[r.Cluster][r.Scheme] = r.Throughput
	}
	for cid, m := range byCluster {
		if m["LLM-PQ"] < m["adabits"]*0.999 {
			t.Errorf("cluster %d: LLM-PQ %.2f tok/s should beat adabits %.2f (Fig 9)",
				cid, m["LLM-PQ"], m["adabits"])
		}
	}
}

func TestTable10Overheads(t *testing.T) {
	tab, rows, err := Table10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d clusters", len(rows))
	}
	for _, r := range rows {
		if r.Solve <= 0 {
			t.Errorf("cluster %d: zero solve time", r.Cluster)
		}
		if r.Solve.Seconds() > 120 {
			t.Errorf("cluster %d: solve %.1fs exceeds the paper's worst case regime", r.Cluster, r.Solve.Seconds())
		}
	}
	if len(tab.Rows) != 13 { // 11 + AVG + SLOWEST
		t.Errorf("table rows %d", len(tab.Rows))
	}
}

func TestTable3And9Render(t *testing.T) {
	t3 := Table3()
	if len(t3.Rows) != 11 {
		t.Errorf("table3 rows %d", len(t3.Rows))
	}
	t9 := Table9()
	if len(t9.Rows) != 11 {
		t.Errorf("table9 rows %d", len(t9.Rows))
	}
	if !strings.Contains(t3.Render(), "3xT4") {
		t.Error("table3 should describe cluster 3 as 3xT4 + 1xV100")
	}
}
