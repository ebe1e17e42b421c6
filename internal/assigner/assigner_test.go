package assigner

import (
	"math"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
)

// tinyGPU builds a down-scaled GPU so memory constraints bind on small
// test models.
func tinyGPU(name string, memGB, tflops, bw float64) hardware.GPU {
	return hardware.GPU{
		Name: name, MemoryGB: memGB, FP16TFLOPS: tflops, BandwidthGBs: bw,
		ComputeEff:       map[int]float64{3: 0.45, 4: 0.5, 8: 0.8, 16: 1.0},
		MemEff:           map[int]float64{3: 0.7, 4: 0.78, 8: 0.91, 16: 1.0},
		LaunchOverheadUS: 10,
	}
}

func tinyCluster(memA, memB float64) hardware.Cluster {
	fast := tinyGPU("fast", memA, 50, 600)
	slow := tinyGPU("slow", memB, 12, 300)
	return hardware.Cluster{
		Name:      "test",
		InterNode: hardware.Eth800Gbps,
		Devices: []hardware.Device{
			{ID: 0, GPU: slow, Node: 0},
			{ID: 1, GPU: fast, Node: 1},
		},
	}
}

var tinyModel = model.Config{
	Name: "tiny-test", Family: model.OPT, Hidden: 2048, FFN: 8192,
	Layers: 8, Heads: 16, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true,
}

func tinySpec(method Method, theta float64, memA, memB float64) *Spec {
	return &Spec{
		Cfg:     tinyModel,
		Cluster: tinyCluster(memA, memB),
		Work:    Workload{GlobalBatch: 8, Prompt: 128, Generate: 16},
		Bits:    []int{4, 8, 16},
		Omega:   subsetOmega(indicator.Synthetic(tinyModel, []int{3, 4, 8, 16}, 7), []int{4, 8, 16}),
		Theta:   theta,
		Method:  method,
	}
}

// subsetOmega restricts an Omega to a subset of bit candidates.
func subsetOmega(o indicator.Omega, bits []int) indicator.Omega {
	out := indicator.Omega{Bits: bits}
	for l := 0; l < o.Layers(); l++ {
		row := make([]float64, len(bits))
		for i, b := range bits {
			v, err := o.At(l, b)
			if err != nil {
				panic(err)
			}
			row[i] = v
		}
		out.Values = append(out.Values, row)
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	s := tinySpec(MethodDP, 1, 2, 2)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := *s
	bad.Work.GlobalBatch = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected workload error")
	}
	bad = *s
	bad.Bits = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected bits error")
	}
	bad = *s
	bad.Theta = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected theta error")
	}
	bad = *s
	bad.Group = 5 // 8 layers / 5 = 2 groups < omega layers
	if err := bad.Validate(); err == nil {
		t.Error("expected omega/group mismatch error")
	}
	bad = *s
	bad.Parallelism = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected negative-parallelism error")
	}
	for _, mbs := range [][]int{{0}, {-2}, {4, 0}} {
		bad = *s
		bad.PrefillMicroBatches = mbs
		if err := bad.Validate(); err == nil {
			t.Errorf("expected non-positive micro-batch error for %v", mbs)
		}
	}
	bad = *s
	bad.PrefillMicroBatches = []int{s.Work.GlobalBatch + 1}
	if err := bad.Validate(); err == nil {
		t.Error("expected micro-batch-exceeds-global-batch error")
	}
}

// TestPrefillCandidatesDegenerateBatch pins the fix for a panic: a zero
// (or negative) global batch used to index an empty candidate slice.
func TestPrefillCandidatesDegenerateBatch(t *testing.T) {
	s := tinySpec(MethodDP, 1, 2, 2)
	for _, gb := range []int{0, -3} {
		s.Work.GlobalBatch = gb
		if got := s.prefillCandidates(); got != nil {
			t.Errorf("GlobalBatch=%d: got candidates %v, want nil", gb, got)
		}
	}
	s.Work.GlobalBatch = 8
	if got := s.prefillCandidates(); len(got) == 0 {
		t.Error("positive batch yielded no candidates")
	}
}

func TestCandidateOrders(t *testing.T) {
	c3, _ := hardware.ClusterByID(3) // T4 + V100: 2 types → 2 orders
	if got := len(CandidateOrders(c3)); got != 2 {
		t.Errorf("cluster 3: %d orders, want 2", got)
	}
	c9, _ := hardware.ClusterByID(9) // homogeneous → 1 order
	if got := len(CandidateOrders(c9)); got != 1 {
		t.Errorf("cluster 9: %d orders, want 1", got)
	}
	for _, order := range CandidateOrders(c3) {
		seen := map[int]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("duplicate device in order %v", order)
			}
			seen[id] = true
		}
		if len(order) != c3.NumDevices() {
			t.Fatalf("order %v misses devices", order)
		}
	}
}

func TestOptimizeDPFindsFeasiblePlan(t *testing.T) {
	s := tinySpec(MethodDP, 1, 2.0, 1.2)
	res, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(s); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if !res.Eval.Feasible {
		t.Fatalf("infeasible plan returned: %s", res.Eval.Violation)
	}
	if res.Eval.LatencySec <= 0 || res.Eval.Throughput <= 0 {
		t.Errorf("bad evaluation %+v", res.Eval)
	}
	if res.Explored < 2 {
		t.Errorf("expected ≥2 (order, mb) combinations, got %d", res.Explored)
	}
}

func TestMemoryConstraintForcesQuantization(t *testing.T) {
	// Shrink memory until FP16 cannot fit; the plan must use lower bits.
	s := tinySpec(MethodDP, 0.001, 1.1, 0.9)
	res, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp16 := 0
	for _, b := range res.Plan.GroupBits {
		if b == 16 {
			fp16++
		}
	}
	if fp16 == len(res.Plan.GroupBits) {
		t.Error("tight memory should force some quantization")
	}
	// And with plentiful memory + large theta, everything stays FP16.
	s2 := tinySpec(MethodDP, 1e6, 24, 24)
	res2, err := Optimize(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res2.Plan.GroupBits {
		if b != 16 {
			t.Errorf("group %d quantized to %d despite abundant memory and huge theta", i, b)
		}
	}
}

func TestThetaTradesLatencyForQuality(t *testing.T) {
	// Fig 8: larger θ → lower ω (better quality), possibly slower.
	lowTheta, err := Optimize(tinySpec(MethodDP, 1e-4, 1.6, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	highTheta, err := Optimize(tinySpec(MethodDP, 10, 1.6, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if highTheta.Eval.OmegaSum > lowTheta.Eval.OmegaSum+1e-9 {
		t.Errorf("higher theta should not worsen quality: ω %.4g vs %.4g",
			highTheta.Eval.OmegaSum, lowTheta.Eval.OmegaSum)
	}
	if highTheta.Eval.LatencySec < lowTheta.Eval.LatencySec-1e-9 {
		t.Errorf("higher theta should not be faster: %.4g vs %.4g",
			highTheta.Eval.LatencySec, lowTheta.Eval.LatencySec)
	}
}

func TestFasterDeviceGetsMoreLayers(t *testing.T) {
	// Phase-aware partition: the fast device should carry more groups.
	s := tinySpec(MethodDP, 1e-4, 2.2, 2.2)
	res, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for j := 0; j < res.Plan.NumStages(); j++ {
		lo, hi, _ := res.Plan.StageRange(j)
		name := s.Cluster.Devices[res.Plan.Order[j]].GPU.Name
		counts[name] += hi - lo
	}
	if counts["fast"] <= counts["slow"] {
		t.Errorf("fast device got %d groups, slow %d — partition ignores speed", counts["fast"], counts["slow"])
	}
}

func TestDPMatchesILPOnSmallInstance(t *testing.T) {
	// DESIGN.md §5.1: the structured solver must agree with the exact MILP.
	// Small instance (6 groups × 2 stages × 2 bits) so branch-and-bound
	// terminates without a time limit.
	small := tinyModel
	small.Layers = 6
	mk := func(m Method) *Spec {
		s := &Spec{
			Cfg:     small,
			Cluster: tinyCluster(1.4, 1.0),
			Work:    Workload{GlobalBatch: 4, Prompt: 128, Generate: 8},
			Bits:    []int{4, 16},
			Omega:   subsetOmega(indicator.Synthetic(small, []int{3, 4, 8, 16}, 7), []int{4, 16}),
			Theta:   0.01,
			Method:  m,
			// Single micro-batch candidate keeps it apples-to-apples.
			PrefillMicroBatches: []int{2},
			TimeLimit:           60 * time.Second,
		}
		return s
	}
	rDP, err := Optimize(mk(MethodDP), nil)
	if err != nil {
		t.Fatal(err)
	}
	rILP, err := Optimize(mk(MethodILP), nil)
	if err != nil {
		t.Fatal(err)
	}
	// ILP is exact: it can only be ≤ DP (within the ε-cap discretization).
	if rILP.Eval.Objective > rDP.Eval.Objective*1.001 {
		t.Errorf("ILP objective %.6g worse than DP %.6g — MILP must be exact",
			rILP.Eval.Objective, rDP.Eval.Objective)
	}
	if rDP.Eval.Objective > rILP.Eval.Objective*1.02 {
		t.Errorf("DP objective %.6g more than 2%% above ILP %.6g",
			rDP.Eval.Objective, rILP.Eval.Objective)
	}
}

func TestHeuristicBeatsAdabits(t *testing.T) {
	// Fig 9: LLM-PQ (joint optimization) outperforms pure adaptive
	// quantization. The heuristic starts from adabits, so it can only
	// improve the objective.
	ada, err := Optimize(tinySpec(MethodAdabits, 0.01, 1.4, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	heu, err := Optimize(tinySpec(MethodHeuristic, 0.01, 1.4, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if heu.Eval.Objective > ada.Eval.Objective+1e-9 {
		t.Errorf("heuristic objective %.6g worse than adabits %.6g", heu.Eval.Objective, ada.Eval.Objective)
	}
	if heu.Eval.LatencySec > ada.Eval.LatencySec*1.001 {
		t.Errorf("heuristic latency %.4g should not exceed adabits %.4g", heu.Eval.LatencySec, ada.Eval.LatencySec)
	}
}

func TestDPBeatsOrMatchesHeuristic(t *testing.T) {
	dp, err := Optimize(tinySpec(MethodDP, 0.01, 1.4, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	heu, err := Optimize(tinySpec(MethodHeuristic, 0.01, 1.4, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Eval.Objective > heu.Eval.Objective*1.02 {
		t.Errorf("DP %.6g should not lose to heuristic %.6g by more than 2%%", dp.Eval.Objective, heu.Eval.Objective)
	}
}

func TestGroupingReducesSolveTimeSameBallpark(t *testing.T) {
	// Table 8: group=2 shrinks the search space with modest quality loss.
	s1 := tinySpec(MethodDP, 0.01, 1.4, 1.0)
	s2 := tinySpec(MethodDP, 0.01, 1.4, 1.0)
	s2.Group = 2
	s2.Omega = GroupOmega(s1.Omega, 2)
	r1, err := Optimize(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Plan.Validate(s2); err != nil {
		t.Fatalf("grouped plan invalid: %v", err)
	}
	if len(r2.Plan.GroupBits) != 4 {
		t.Errorf("group=2 over 8 layers should yield 4 groups, got %d", len(r2.Plan.GroupBits))
	}
	// Grouped objective in the same ballpark (group=2 over only 8 layers is
	// much coarser than the paper's 48+-layer setting; Table 8 reports the
	// realistic gap).
	if r2.Eval.Objective > r1.Eval.Objective*1.5 {
		t.Errorf("grouping lost too much: %.6g vs %.6g", r2.Eval.Objective, r1.Eval.Objective)
	}
	// Expanded per-layer bits must have length 8.
	if lb := r2.Plan.LayerBits(8); len(lb) != 8 {
		t.Errorf("expanded layer bits %v", lb)
	}
}

func TestEvaluateAgainstHandComputation(t *testing.T) {
	s := tinySpec(MethodDP, 0, 24, 24)
	tab, err := BuildTables(s, ProfilerTimer{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{
		Order: []int{0, 1}, Boundaries: []int{0, 4, 8},
		GroupBits: []int{16, 16, 16, 16, 16, 16, 16, 16},
		Group:     1, PrefillMB: 4, DecodeMB: tab.DecodeMB,
	}
	ev, err := Evaluate(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	bi := bitIndexIn(tab.Spec.Bits, 16)
	pre0 := 4*tab.TPre[0][bi] + tab.EmbedPre + tab.CommPre[0][1]
	pre1 := 4*tab.TPre[1][bi] + tab.CommDec[1][0]
	if math.Abs(ev.StagePre[0]-pre0) > 1e-12 || math.Abs(ev.StagePre[1]-pre1) > 1e-12 {
		t.Errorf("stage prefill times %.6g/%.6g, hand-computed %.6g/%.6g",
			ev.StagePre[0], ev.StagePre[1], pre0, pre1)
	}
	kp := 2 // batch 8 / mb 4
	maxPre := math.Max(pre0, pre1)
	wantPre := pre0 + pre1 + float64(kp-1)*maxPre
	if math.Abs(ev.PrefillSec-wantPre) > 1e-12 {
		t.Errorf("prefill %.6g want %.6g", ev.PrefillSec, wantPre)
	}
	if ev.Objective != ev.LatencySec { // theta = 0
		t.Errorf("objective %.6g should equal latency %.6g at theta=0", ev.Objective, ev.LatencySec)
	}
}

// TestEvaluateRejectsMicroBatchMismatch: tables price one prefill and one
// decode micro-batch, so a plan with either other than theirs would get a
// latency the runtime does not reproduce.
func TestEvaluateRejectsMicroBatchMismatch(t *testing.T) {
	s := tinySpec(MethodDP, 0, 24, 24)
	tab, err := BuildTables(s, ProfilerTimer{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mb := range []struct{ pre, dec int }{{4, tab.DecodeMB}, {2, tab.DecodeMB}, {4, tab.DecodeMB / 2}} {
		p := &Plan{
			Order: []int{0, 1}, Boundaries: []int{0, 4, 8},
			GroupBits: []int{16, 16, 16, 16, 16, 16, 16, 16},
			Group:     1, PrefillMB: mb.pre, DecodeMB: mb.dec,
		}
		_, err := Evaluate(tab, p)
		if match := mb.pre == tab.PrefillMB && mb.dec == tab.DecodeMB; (err == nil) != match {
			t.Errorf("micro-batches %d/%d under tables for %d/%d: error %v", mb.pre, mb.dec, tab.PrefillMB, tab.DecodeMB, err)
		}
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	s := tinySpec(MethodDP, 1, 2, 2)
	res, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := clonePlan(res.Plan)
	bad.Boundaries[1] = bad.Boundaries[0] // empty stage
	if err := bad.Validate(s); err == nil {
		t.Error("expected empty-stage error")
	}
	bad = clonePlan(res.Plan)
	bad.GroupBits[0] = 5
	if err := bad.Validate(s); err == nil {
		t.Error("expected invalid-bit error")
	}
	bad = clonePlan(res.Plan)
	bad.Order = []int{0, 0}
	if err := bad.Validate(s); err == nil {
		t.Error("expected duplicate-device error")
	}
}

func TestGroupOmegaSums(t *testing.T) {
	o := indicator.Synthetic(tinyModel, []int{4, 8, 16}, 1)
	g := GroupOmega(o, 3) // 8 layers → groups of 3,3,2
	if g.Layers() != 3 {
		t.Fatalf("grouped layers=%d want 3", g.Layers())
	}
	v0, _ := o.At(0, 4)
	v1, _ := o.At(1, 4)
	v2, _ := o.At(2, 4)
	got, _ := g.At(0, 4)
	if math.Abs(got-(v0+v1+v2)) > 1e-12 {
		t.Errorf("group omega %.6g != member sum %.6g", got, v0+v1+v2)
	}
}

func TestSingleDeviceCluster(t *testing.T) {
	// Cluster 1 analogue: one device, memory tight → quantize.
	gpu := tinyGPU("solo", 1.0, 50, 600)
	s := tinySpec(MethodDP, 0.01, 0, 0)
	s.Cluster = hardware.Cluster{Name: "solo", InterNode: hardware.NVLink,
		Devices: []hardware.Device{{ID: 0, GPU: gpu, Node: 0}}}
	res, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.NumStages() != 1 {
		t.Errorf("single device should give one stage")
	}
	if !res.Eval.Feasible {
		t.Error("plan infeasible")
	}
}

func TestInfeasibleClusterErrors(t *testing.T) {
	// Absurdly small memory: nothing fits even at 3-4 bits.
	s := tinySpec(MethodDP, 1, 0.05, 0.05)
	if _, err := Optimize(s, nil); err == nil {
		t.Error("expected no-feasible-plan error")
	}
}
