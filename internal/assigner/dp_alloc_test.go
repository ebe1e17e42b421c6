package assigner

import "testing"

// structuredAllocs is solveStructured's allocation count on the tiny
// two-device instance of TestSolveStructuredAllocs: one mixture table and
// one DP buffer, each ε pass's plan and evaluation, and the two polish
// passes, which clone and evaluate only the candidates they accept. A DP
// buffer allocated per pass would add at least one allocation for each of
// the 11 grid entries, and a polish pass cloning or evaluating every
// candidate it prices would add hundreds, both more than allocSlack.
const (
	structuredAllocs = 168
	allocSlack       = 8
)

func allocInstance(t *testing.T) (*Tables, []int, *benefitTable) {
	t.Helper()
	s := tinySpec(MethodDP, 1, 2, 2)
	tb, err := BuildTables(s, ProfilerTimer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := buildBenefits(s)
	if err != nil {
		t.Fatal(err)
	}
	return tb, []int{0, 1}, bt
}

// TestSolveStructuredAllocs bounds the allocations of one ε sweep, so a
// per-pass DP buffer fails it.
func TestSolveStructuredAllocs(t *testing.T) {
	tb, order, bt := allocInstance(t)
	got := testing.AllocsPerRun(10, func() {
		if _, _, err := solveStructured(tb, order, bt); err != nil {
			t.Fatal(err)
		}
	})
	if got > structuredAllocs+allocSlack {
		t.Errorf("solveStructured made %.0f allocations, want at most %d+%d: is a DP pass allocating its own buffer, or a polish pass a plan per candidate?",
			got, structuredAllocs, allocSlack)
	}
}

// TestDPPassReusesBuffer: on a reused buffer a DP pass allocates only the
// plan it returns, so a pass whose caps admit no plan allocates nothing.
func TestDPPassReusesBuffer(t *testing.T) {
	tb, order, bt := allocInstance(t)
	L := tb.Spec.layerGroups()
	mt := newMixTable(tb, order, bt, L-1)
	buf := newDPBuf(len(order), L, mt)
	var p *Plan
	if got := testing.AllocsPerRun(10, func() { p, _ = solveDP(tb, order, bt, mt, buf, 0, 0) }); got != 0 || p != nil {
		t.Errorf("infeasible pass: plan %v, %.0f allocations, want none", p, got)
	}
	if got := testing.AllocsPerRun(10, func() { p, _ = solveDP(tb, order, bt, mt, buf, infCost, infCost) }); p == nil || got > 20 {
		t.Errorf("unconstrained pass: plan %v, %.0f allocations, want a plan and at most 20 (the plan and its upgraded sets)", p, got)
	}
}

// TestEvaluateAllocs pins Evaluate at its four per-stage result slices: a
// per-call scratch slice in the pricing path would add to every solver's
// allocations.
func TestEvaluateAllocs(t *testing.T) {
	tb, order, bt := allocInstance(t)
	p, _, err := solveStructured(tb, order, bt)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := Evaluate(tb, p); err != nil {
			t.Fatal(err)
		}
	}); got != 4 {
		t.Errorf("Evaluate made %.0f allocations, want 4: the Evaluation's per-stage slices", got)
	}
}
