package assigner

// Algorithm 2's search as it stood before candidates were walked lazily and
// priced by delta: bitwidthTransfer, neighbors and bitChoices, verbatim
// except that they are renamed. TestTransferMatchesOracle checks the
// production search against it.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hardware"
)

func oracleBitwidthTransfer(t *Tables, start *Plan) (*Plan, *Evaluation, error) {
	best := clonePlan(start)
	bestEv, err := Evaluate(t, best)
	if err != nil {
		return nil, nil, err
	}
	for iter := 0; iter < transferMaxIters; iter++ {
		improved := false
		for _, cand := range oracleNeighbors(t.Spec, best) {
			ev, err := Evaluate(t, cand)
			if err != nil {
				return nil, nil, err
			}
			if ev.Feasible && ev.Objective < bestEv.Objective-1e-12 {
				best, bestEv = cand, ev
				improved = true
				break // greedy first-improvement, then re-derive neighbors
			}
		}
		if !improved {
			break
		}
	}
	return best, &bestEv, nil
}

func oracleNeighbors(s *Spec, p *Plan) []*Plan {
	var out []*Plan
	n := p.NumStages()
	// Boundary shifts with optional precision conversion of the moved
	// group.
	for b := 1; b < n; b++ {
		// Shift boundary left: first group of stage b moves to stage b-1?
		// Boundaries[b] separates stage b-1 (left) and stage b (right).
		// Move right: stage b-1 grows by taking group Boundaries[b].
		if p.Boundaries[b+1]-p.Boundaries[b] > 1 { // right stage keeps ≥1
			for _, nb := range oracleBitChoices(s, p.GroupBits[p.Boundaries[b]]) {
				q := clonePlan(p)
				q.GroupBits[q.Boundaries[b]] = nb
				q.Boundaries[b]++
				out = append(out, q)
			}
		}
		// Move left: stage b grows by taking group Boundaries[b]-1.
		if p.Boundaries[b]-p.Boundaries[b-1] > 1 { // left stage keeps ≥1
			for _, nb := range oracleBitChoices(s, p.GroupBits[p.Boundaries[b]-1]) {
				q := clonePlan(p)
				q.GroupBits[q.Boundaries[b]-1] = nb
				q.Boundaries[b]--
				out = append(out, q)
			}
		}
	}
	// In-place precision steps on every group (the straggler's groups come
	// first in evaluation order anyway; trying all keeps the rule set
	// complete and the instance sizes make it cheap).
	for g := 0; g < len(p.GroupBits); g++ {
		cur := bitIndexIn(s.Bits, p.GroupBits[g])
		if cur > 0 {
			q := clonePlan(p)
			q.GroupBits[g] = s.Bits[cur-1]
			out = append(out, q)
		}
		if cur >= 0 && cur < len(s.Bits)-1 {
			q := clonePlan(p)
			q.GroupBits[g] = s.Bits[cur+1]
			out = append(out, q)
		}
	}
	return out
}

func oracleBitChoices(s *Spec, cur int) []int {
	i := bitIndexIn(s.Bits, cur)
	out := []int{cur}
	if i > 0 {
		out = append(out, s.Bits[i-1])
	}
	if i >= 0 && i < len(s.Bits)-1 {
		out = append(out, s.Bits[i+1])
	}
	return out
}

// checkTransfer runs both searches from start and requires the same error,
// or a deep-equal plan and evaluation. It then follows the oracle's path
// and requires the lazy walk to visit oracleNeighbors' candidates in their
// order on every plan along it, and to stop at the same one.
func checkTransfer(t testing.TB, tb *Tables, start *Plan) {
	t.Helper()
	wantPlan, wantEv, wantErr := oracleBitwidthTransfer(tb, start)
	gotPlan, gotEv, gotErr := bitwidthTransfer(tb, start)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("start %+v: error %v, oracle %v", start, gotErr, wantErr)
	}
	if !reflect.DeepEqual(wantPlan, gotPlan) || !reflect.DeepEqual(wantEv, gotEv) {
		t.Fatalf("start %+v:\nplan %+v %+v\noracle %+v %+v", start, gotPlan, gotEv, wantPlan, wantEv)
	}
	if wantErr != nil {
		return
	}
	p := clonePlan(start)
	ev, _ := Evaluate(tb, p)
	for iter := 0; iter < transferMaxIters; iter++ {
		want := oracleNeighbors(tb.Spec, p)
		accept, next := -1, ev
		for i, q := range want {
			if qe, _ := Evaluate(tb, q); qe.Feasible && qe.Objective < ev.Objective-1e-12 {
				accept, next = i, qe
				break
			}
		}
		d := newTransferEval(tb, p)
		var got []*Plan
		d.walk(func(lo, hi int) bool {
			got = append(got, clonePlan(d.p))
			return false
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %+v: walk visits %d candidates, oracle %d, or in another order", p, len(got), len(want))
		}
		if !reflect.DeepEqual(d.p, p) || !reflect.DeepEqual(d.cand, d.cur) {
			t.Fatalf("plan %+v: a full walk leaves scratch %+v", p, d.p)
		}
		visits := 0
		found := d.walk(func(lo, hi int) bool {
			visits++
			obj, feasible, _ := d.score(lo, hi)
			return feasible && obj < ev.Objective-1e-12
		})
		if accept < 0 {
			if found {
				t.Fatalf("plan %+v: walk accepts candidate %d, oracle none", p, visits)
			}
			return
		}
		if !found || visits != accept+1 {
			t.Fatalf("plan %+v: walk accepts at visit %d (found %v), oracle at %d", p, visits, found, accept+1)
		}
		p, ev = want[accept], next
	}
}

// transferStarts returns, for each (micro-batch, order) combination of s,
// its tables and the plans the solvers hand bitwidthTransfer: the best of
// solveStructured's DP passes, reduced as solveStructured reduces them,
// and the adabits seed.
func transferStarts(t testing.TB, s *Spec) (tbs []*Tables, starts [][]*Plan) {
	t.Helper()
	bt, err := buildBenefits(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, mb := range s.prefillCandidates() {
		tb, err := BuildTables(s, ProfilerTimer{}, mb)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range CandidateOrders(s.Cluster) {
			var plans []*Plan
			n, L := len(order), s.layerGroups()
			kmax := L - (n - 1)
			if lim := 3*((L+n-1)/n) + 2; lim < kmax {
				kmax = lim
			}
			mt := newMixTable(tb, order, bt, kmax)
			buf := newDPBuf(n, L, mt)
			best, err := solveDP(tb, order, bt, mt, buf, infCost, infCost)
			if err != nil {
				t.Fatal(err)
			}
			if best != nil {
				bestEv, err := Evaluate(tb, best)
				if err != nil {
					t.Fatal(err)
				}
				maxPre, maxDec := maxOf(bestEv.StagePre), maxOf(bestEv.StageDec)
				for _, fc := range epsGrid {
					p, err := solveDP(tb, order, bt, mt, buf, fc[0]*maxPre, fc[1]*maxDec)
					if err != nil {
						t.Fatal(err)
					}
					if p == nil {
						continue
					}
					if ev, err := Evaluate(tb, p); err != nil {
						t.Fatal(err)
					} else if ev.Feasible && ev.Objective < bestEv.Objective {
						best, bestEv = p, ev
					}
				}
				if bestEv.Feasible {
					plans = append(plans, best)
				}
			}
			seed, err := solveAdabits(tb, order, bt)
			if err != nil {
				t.Fatal(err)
			}
			if seed != nil {
				plans = append(plans, seed)
			}
			tbs, starts = append(tbs, tb), append(starts, plans)
		}
	}
	return tbs, starts
}

// checkTransferStarts checks the search against the oracle from every
// start transferStarts finds for s, and, for MethodHeuristic, checks
// solveInner's heuristic path against the oracle run on the adabits seed.
func checkTransferStarts(t testing.TB, s *Spec) {
	t.Helper()
	tbs, starts := transferStarts(t, s)
	bt, err := buildBenefits(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range tbs {
		for _, p := range starts[i] {
			checkTransfer(t, tb, p)
		}
	}
	if s.Method != MethodHeuristic {
		return
	}
	for _, tb := range tbs {
		for _, order := range CandidateOrders(s.Cluster) {
			seed, err := solveAdabits(tb, order, bt)
			if err != nil {
				t.Fatal(err)
			}
			gotPlan, gotEv, err := solveInner(s, tb, order, bt)
			if err != nil {
				t.Fatal(err)
			}
			var wantPlan *Plan
			var wantEv *Evaluation
			if seed != nil {
				if wantPlan, wantEv, err = oracleBitwidthTransfer(tb, seed); err != nil {
					t.Fatal(err)
				}
				if !wantEv.Feasible {
					wantPlan, wantEv = nil, nil
				}
			}
			if !reflect.DeepEqual(wantPlan, gotPlan) || !reflect.DeepEqual(wantEv, gotEv) {
				t.Fatalf("mb %d order %v: heuristic %+v %+v, oracle %+v %+v", tb.PrefillMB, order, gotPlan, gotEv, wantPlan, wantEv)
			}
		}
	}
}

// randomPlan draws a structurally valid plan for tb: a random device order,
// random non-empty stages and random candidate bits.
func randomPlan(rng *rand.Rand, tb *Tables) *Plan {
	s := tb.Spec
	n, L := s.Cluster.NumDevices(), s.layerGroups()
	p := &Plan{
		Order: rng.Perm(n), Boundaries: []int{0}, GroupBits: make([]int, L),
		Group: s.Group, PrefillMB: tb.PrefillMB, DecodeMB: tb.DecodeMB,
	}
	cuts := rng.Perm(L - 1)[:n-1]
	sort.Ints(cuts)
	for _, c := range cuts {
		p.Boundaries = append(p.Boundaries, c+1)
	}
	p.Boundaries = append(p.Boundaries, L)
	for g := range p.GroupBits {
		p.GroupBits[g] = s.Bits[rng.Intn(len(s.Bits))]
	}
	return p
}

// oneDeviceSpec is tinySpec on its fast device alone, so every plan has
// one stage and no return hop.
func oneDeviceSpec(theta, mem float64) *Spec {
	s := tinySpec(MethodDP, theta, mem, mem)
	s.Cluster.Devices = []hardware.Device{{ID: 0, GPU: s.Cluster.Devices[1].GPU, Node: 0}}
	return s
}

// tinyTransferSpecs are the seeded tiny instances of the transfer tests:
// θ from 0 to 1000, memory from infeasible to ample, grouping 1 and 2, two
// devices and one, and each method that runs the search.
func tinyTransferSpecs(rng *rand.Rand) []*Spec {
	var out []*Spec
	for _, theta := range []float64{0, 1e-3, 0.1, 1, 1000} {
		for _, m := range []Method{MethodDP, MethodHeuristic} {
			s := tinySpec(m, theta, 0.2+1.6*rng.Float64(), 0.2+1.6*rng.Float64())
			if rng.Intn(2) == 0 {
				s.Group, s.Omega = 2, GroupOmega(s.Omega, 2)
			}
			out = append(out, s)
		}
		out = append(out, oneDeviceSpec(theta, 0.3+1.5*rng.Float64()))
	}
	return out
}

// TestTransferMatchesOracle is the differential check of Algorithm 2's
// search: from random plans and from the solvers' own seeds on tiny
// instances, the lazy, delta-priced search returns the oracle's plan and
// evaluation and visits the oracle's candidates in order.
func TestTransferMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range tinyTransferSpecs(rng) {
		checkTransferStarts(t, s)
		for _, mb := range s.prefillCandidates() {
			tb, err := BuildTables(s, ProfilerTimer{}, mb)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4; k++ {
				checkTransfer(t, tb, randomPlan(rng, tb))
			}
		}
	}
}

// TestTransferErrorMatchesOracle: an ω indicator missing a bit the start
// plan does not use fails both searches with the same error once a
// candidate reaches that bit.
func TestTransferErrorMatchesOracle(t *testing.T) {
	s := tinySpec(MethodDP, 0.01, 2, 2)
	s.Omega = subsetOmega(s.Omega, []int{4, 8})
	tb, err := BuildTables(s, ProfilerTimer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := &Plan{Order: []int{0, 1}, Boundaries: []int{0, 4, 8}, GroupBits: []int{8, 8, 8, 8, 8, 8, 8, 8},
		PrefillMB: tb.PrefillMB, DecodeMB: tb.DecodeMB}
	if _, _, err := bitwidthTransfer(tb, start); err == nil {
		t.Fatal("search priced a bit ω lacks")
	}
	checkTransfer(t, tb, start)
}

// deltaWalk counts what checkDeltaWalk's walks reached.
type deltaWalk struct {
	infeasible int // candidates that overflow a device's memory
	firstStep  int // in-place bit steps of group 0
	lastStep   int // in-place bit steps of the last group
	plainShift int // boundary shifts at the moved group's current bits
	// fallbacks counts the candidates of start plans whose ω misses a
	// bit, which the scorer leaves to Evaluate.
	fallbacks int
}

func (w *deltaWalk) add(o deltaWalk) {
	w.infeasible += o.infeasible
	w.firstStep += o.firstStep
	w.lastStep += o.lastStep
	w.plainShift += o.plainShift
	w.fallbacks += o.fallbacks
}

// missingOmega reports whether a group of p has bits ω lacks.
func missingOmega(s *Spec, p *Plan) bool {
	for g, bits := range p.GroupBits {
		if _, err := s.Omega.At(g, bits); err != nil {
			return true
		}
	}
	return false
}

// checkDeltaWalk walks every candidate of random plans for tb, sometimes
// accepting one to move on, and requires the delta price of each to be
// bit-equal to Evaluate on a clone: objective, feasibility and every
// stage's prefill and decode time and memory. The scorer must decline
// (ok false, so Evaluate prices the candidate) exactly when a group of the
// incumbent or of the candidate has bits ω lacks. It returns what the
// walks reached.
func checkDeltaWalk(t testing.TB, tb *Tables, rng *rand.Rand, plans int) (w deltaWalk) {
	t.Helper()
	L := tb.Spec.layerGroups()
	for k := 0; k < plans; k++ {
		d := newTransferEval(tb, randomPlan(rng, tb))
		for step := 0; step < 4; step++ {
			inc := clonePlan(d.p)
			incMissing := missingOmega(tb.Spec, inc)
			accepted := d.walk(func(lo, hi int) bool {
				shifted := !reflect.DeepEqual(d.p.Boundaries, inc.Boundaries)
				switch {
				case shifted && reflect.DeepEqual(d.p.GroupBits, inc.GroupBits):
					w.plainShift++
				case !shifted && d.p.GroupBits[0] != inc.GroupBits[0]:
					w.firstStep++
				case !shifted && d.p.GroupBits[L-1] != inc.GroupBits[L-1]:
					w.lastStep++
				}
				obj, feasible, ok := d.score(lo, hi)
				if wantOK := !incMissing && !missingOmega(tb.Spec, d.p); ok != wantOK {
					t.Fatalf("candidate %+v of %+v: ok %v, want %v", d.p, inc, ok, wantOK)
				}
				if !ok {
					if step == 0 && incMissing {
						w.fallbacks++
					}
					return rng.Intn(16) == 0
				}
				ev, err := Evaluate(tb, clonePlan(d.p))
				if err != nil {
					t.Fatalf("candidate %+v: Evaluate error %v", d.p, err)
				}
				if !feasible {
					w.infeasible++
				}
				if math.Float64bits(obj) != math.Float64bits(ev.Objective) || feasible != ev.Feasible {
					t.Fatalf("candidate %+v: objective %v feasible %v, Evaluate %v %v", d.p, obj, feasible, ev.Objective, ev.Feasible)
				}
				for j, c := range d.cand {
					if math.Float64bits(c.pre) != math.Float64bits(ev.StagePre[j]) ||
						math.Float64bits(c.dec) != math.Float64bits(ev.StageDec[j]) ||
						math.Float64bits(c.mem/1e9) != math.Float64bits(ev.StageMemGB[j]) {
						t.Fatalf("candidate %+v stage %d: %+v, Evaluate %v %v %v GB", d.p, j, c, ev.StagePre[j], ev.StageDec[j], ev.StageMemGB[j])
					}
				}
				return rng.Intn(16) == 0
			})
			if !accepted {
				break
			}
			d.load()
		}
	}
	return w
}

// TestDeltaMatchesEvaluate runs checkDeltaWalk over the tiny instances,
// among them infeasible starts, single-stage plans, grouping 1 and 2, and
// θ from 0 to 1000, and then over start plans whose ω misses a bit. The
// walks must reach each edge of the scorer's ω prefix reuse: bit steps of
// the first and the last group, shifts that change no bits, and the
// fallback to Evaluate.
func TestDeltaMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var w deltaWalk
	walk := func(s *Spec) {
		for _, mb := range s.prefillCandidates() {
			tb, err := BuildTables(s, ProfilerTimer{}, mb)
			if err != nil {
				t.Fatal(err)
			}
			w.add(checkDeltaWalk(t, tb, rng, 6))
		}
	}
	for _, s := range tinyTransferSpecs(rng) {
		walk(s)
	}
	if w.infeasible == 0 {
		t.Error("no candidate was infeasible: the instances no longer exercise the memory check")
	}
	s := tinySpec(MethodDP, 0.01, 2, 2)
	s.Omega = subsetOmega(s.Omega, []int{4, 8})
	walk(s)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"bit step of group 0", w.firstStep},
		{"bit step of the last group", w.lastStep},
		{"shift at the current bits", w.plainShift},
		{"fallback from a start plan whose ω misses a bit", w.fallbacks},
	} {
		if c.n == 0 {
			t.Errorf("no walk reached a %s", c.name)
		}
	}
}
