package assigner

// The ε-constraint scan as it stood before it skipped dominated passes:
// solveStructured, verbatim except that it is renamed. checkEpsSkip holds
// the skipping scan to it.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func oracleSolveStructured(t *Tables, order []int, bt *benefitTable) (*Plan, *Evaluation, error) {
	s := t.Spec
	n := len(order)
	kmax := s.layerGroups() - (n - 1)
	perStage := (s.layerGroups() + n - 1) / n
	if lim := 3*perStage + 2; lim < kmax {
		kmax = lim
	}
	mt := newMixTable(t, order, bt, kmax)
	buf := newDPBuf(n, s.layerGroups(), mt)
	// Unconstrained pass: the caps are the shared sentinel, which no
	// finite stage time can reach.
	base, err := solveDP(t, order, bt, mt, buf, infCost, infCost)
	if err != nil || base == nil {
		return nil, nil, err
	}
	bestPlan := base
	bestEv, err := Evaluate(t, base)
	if err != nil {
		return nil, nil, err
	}
	maxPre, maxDec := maxOf(bestEv.StagePre), maxOf(bestEv.StageDec)
	// Degenerate-input guard: a timer that leaks NaN into the stage times
	// must not poison the ε-caps (NaN caps make every > comparison false,
	// silently disabling the memory/time pruning). satAdd already absorbs
	// NaN cells into the infeasibility sentinel; if NaN still reached the
	// base evaluation, declare the combination infeasible rather than
	// sweep garbage.
	if math.IsNaN(maxPre) || math.IsNaN(maxDec) {
		return nil, nil, nil
	}
	grid := [][2]float64{
		{0.92, 0.92}, {0.82, 0.82}, {0.7, 0.7}, {0.55, 0.55}, {0.4, 0.4},
		{1, 0.7}, {0.7, 1}, {1, 0.45}, {0.45, 1}, {0.85, 0.6}, {0.6, 0.85},
	}
	for _, fc := range grid {
		p, err := solveDP(t, order, bt, mt, buf, fc[0]*maxPre, fc[1]*maxDec)
		if err != nil {
			return nil, nil, err
		}
		if p == nil {
			continue
		}
		ev, err := Evaluate(t, p)
		if err != nil {
			return nil, nil, err
		}
		if ev.Feasible && ev.Objective < bestEv.Objective {
			bestPlan, bestEv = p, ev
		}
	}
	if !bestEv.Feasible {
		return nil, nil, nil
	}
	// Local-search polish: the DP restricts stages to two precisions; a
	// bitwidth-transfer pass (Algorithm 2's move set) recovers any gain a
	// third precision or a cap the ε-grid missed could offer.
	polished, pev, err := bitwidthTransfer(t, bestPlan)
	if err != nil {
		return nil, nil, err
	}
	if pev.Feasible && pev.Objective < bestEv.Objective {
		bestPlan, bestEv = polished, *pev
	}
	// Also descend from the adabits basin: guarantees MethodDP dominates
	// both the pure-quantization baseline and the heuristic.
	if seed, err := solveAdabits(t, order, bt); err != nil {
		return nil, nil, err
	} else if seed != nil {
		hplan, hev, err := bitwidthTransfer(t, seed)
		if err != nil {
			return nil, nil, err
		}
		if hev.Feasible && hev.Objective < bestEv.Objective {
			bestPlan, bestEv = hplan, *hev
		}
	}
	return bestPlan, &bestEv, nil
}

// checkEpsSkip solves s with MethodDP under timer (nil: ProfilerTimer).
// Every (micro-batch, order) combination must give the skipping scan and
// the oracle's full one the same error, a deep-equal plan and evaluation
// and a bit-equal objective; and Optimize at parallelism 1, 4 and 8 must
// return the oracle outcomes reduced in canonical order, bit for bit. It
// returns the DP cells the skipped passes would have scanned.
func checkEpsSkip(t testing.TB, s *Spec, timer LayerTimer) (saved float64) {
	t.Helper()
	if timer == nil {
		timer = ProfilerTimer{}
	}
	ds := *s
	ds.Method = MethodDP
	reg := obs.NewRegistry()
	ds.Obs = reg
	cells := reg.Counter(metricSolverDPCells).Value
	bt, err := buildBenefits(&ds)
	if err != nil {
		t.Fatal(err)
	}
	var want *Plan
	var wantEv Evaluation
	for _, mb := range ds.prefillCandidates() {
		tb, err := BuildTables(&ds, timer, mb)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range CandidateOrders(ds.Cluster) {
			before := cells()
			gotPlan, gotEv, gotErr := solveStructured(tb, order, bt)
			mid := cells()
			wantPlan, oracleEv, wantErr := oracleSolveStructured(tb, order, bt)
			saved += (cells() - mid) - (mid - before)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("mb %d order %v: error %v, oracle %v", mb, order, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotPlan, wantPlan) || !reflect.DeepEqual(gotEv, oracleEv) {
				t.Fatalf("mb %d order %v: plan %+v, oracle %+v", mb, order, gotPlan, wantPlan)
			}
			if gotEv != nil && math.Float64bits(gotEv.Objective) != math.Float64bits(oracleEv.Objective) {
				t.Fatalf("mb %d order %v: objective %v, oracle %v", mb, order, gotEv.Objective, oracleEv.Objective)
			}
			if wantPlan != nil && (want == nil || oracleEv.Objective < wantEv.Objective) {
				want, wantEv = wantPlan, *oracleEv
			}
		}
	}
	if want != nil {
		want.Finalize(wantEv)
	}
	for _, workers := range []int{1, 4, 8} {
		ps := ds
		ps.Parallelism = workers
		res, err := Optimize(&ps, timer)
		if want == nil {
			if err == nil {
				t.Fatalf("parallelism %d: plan %+v, oracle none", workers, res.Plan)
			}
			continue
		}
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Plan, want) || math.Float64bits(res.Eval.Objective) != math.Float64bits(wantEv.Objective) {
			t.Fatalf("parallelism %d: plan %+v (objective %v), oracle %+v (objective %v)",
				workers, res.Plan, res.Eval.Objective, want, wantEv.Objective)
		}
	}
	return saved
}

// TestEpsSkipMatchesOracle runs checkEpsSkip on the seeded property specs
// and on degenerate ones whose ε caps are all zero or infinite.
func TestEpsSkipMatchesOracle(t *testing.T) {
	saved := 0.0
	for seed := int64(1); seed <= 40; seed++ {
		saved += checkEpsSkip(t, randomSpec(seed), nil)
	}
	saved += checkEpsSkip(t, tinySpec(MethodDP, 0.1, 3, 3), constTimer(0))
	saved += checkEpsSkip(t, tinySpec(MethodDP, 0.1, 3, 3), constTimer(math.Inf(1)))
	saved += checkEpsSkip(t, tinySpec(MethodDP, 0, 3, 3), nil)
	if saved <= 0 {
		t.Fatal("no ε pass was skipped: the check compares nothing")
	}
}

// TestEpsPassDecides is the lemma epsPass.decides rests on, checked on
// solveDP over seeded random caps: when a looser pass finds no plan the
// tighter one finds none either, and when the looser pass's path fits the
// tighter caps the tighter pass returns a deep-equal plan. Caps are drawn
// around the unconstrained path's stage times, exactly on them included.
func TestEpsPassDecides(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var infeasible, fits int
	for inst := 0; inst < 300; inst++ {
		tb, order, _ := randomDPInstance(rng)
		s := tb.Spec
		L, n := s.layerGroups(), len(order)
		bt, err := buildBenefits(s)
		if err != nil {
			continue // ω misses a bit: no instance
		}
		mt := newMixTable(tb, order, bt, L-(n-1))
		buf := newDPBuf(n, L, mt)
		refPre, refDec := 0.05, 0.005
		if p, err := solveDP(tb, order, bt, mt, buf, infCost, infCost); err != nil {
			t.Fatal(err)
		} else if p != nil {
			ref := lastPass(mt, buf, n, L, infCost, infCost, true)
			refPre, refDec = ref.pathPre, ref.pathDec
		}
		// around draws a cap near ref: exactly on it, above or below it,
		// or no cap at all.
		around := func(ref float64) float64 {
			switch rng.Intn(4) {
			case 0:
				return ref
			case 1:
				return ref * (1 + rng.Float64())
			case 2:
				return ref * rng.Float64()
			}
			return infCost
		}
		// below draws a cap no looser than loose, often exactly on the
		// looser pass's path time.
		below := func(loose, path float64) float64 {
			switch rng.Intn(3) {
			case 0:
				return loose
			case 1:
				if path <= loose {
					return path
				}
			}
			return loose * rng.Float64()
		}
		for trial := 0; trial < 8; trial++ {
			loosePre, looseDec := around(refPre), around(refDec)
			loose, err := solveDP(tb, order, bt, mt, buf, loosePre, looseDec)
			if err != nil {
				t.Fatal(err)
			}
			e := lastPass(mt, buf, n, L, loosePre, looseDec, loose != nil)
			capPre, capDec := below(e.capPre, e.pathPre), below(e.capDec, e.pathDec)
			tight, err := solveDP(tb, order, bt, mt, buf, capPre, capDec)
			if err != nil {
				t.Fatal(err)
			}
			fitsCaps := e.found && e.pathPre <= capPre && e.pathDec <= capDec
			if e.decides(capPre, capDec) != (!e.found || fitsCaps) {
				t.Fatalf("instance %d: pass %+v decides caps (%v, %v) = %v, want %v", inst, e, capPre, capDec, e.decides(capPre, capDec), !e.found || fitsCaps)
			}
			switch {
			case !e.found:
				infeasible++
				if tight != nil {
					t.Fatalf("instance %d: caps (%v, %v) infeasible, tighter (%v, %v) found %+v", inst, e.capPre, e.capDec, capPre, capDec, tight)
				}
			case fitsCaps:
				fits++
				if !reflect.DeepEqual(loose, tight) {
					t.Fatalf("instance %d: caps (%v, %v) plan %+v, tighter (%v, %v) plan %+v", inst, e.capPre, e.capDec, loose, capPre, capDec, tight)
				}
			}
		}
	}
	if infeasible < 100 || fits < 100 {
		t.Fatalf("only %d infeasible and %d fitting looser passes: the draw no longer exercises both cases", infeasible, fits)
	}
}

// TestRangeSumsMatchTable: for every (pair, range start, length) the sums
// sortedSums computes on a table without prefix sums are bit-equal to the
// full table's rangeSums,
// on seeded instances whose benefits include ties, NaN and both signs of
// zero.
func TestRangeSumsMatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	checked := 0
	for inst := 0; inst < 300; inst++ {
		tb, _, _ := randomDPInstance(rng)
		s := *tb.Spec
		if inst%2 == 0 {
			// Signed zeros: ω of −0 against +0 makes a −0 benefit.
			var rows [][]float64
			for _, row := range s.Omega.Values {
				r := append([]float64(nil), row...)
				for i := range r {
					if rng.Intn(3) == 0 {
						r[i] = []float64{0, negZero}[rng.Intn(2)]
					}
				}
				rows = append(rows, r)
			}
			s.Omega.Values = rows
		}
		full, err := buildBenefits(&s)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := buildBenefitBase(&s)
		if err != nil {
			t.Fatal(err)
		}
		if bare.prefix != nil {
			t.Fatal("buildBenefitBase built prefix sums")
		}
		L := s.layerGroups()
		buf := make([]float64, L+1)
		for pi := range full.pairs {
			for lo := 0; lo < L; lo++ {
				for k := 1; lo+k <= L; k++ {
					wantBase, want := full.rangeSums(pi, lo, k)
					gotBase, got := bare.sortedSums(pi, lo, k, buf)
					if math.Float64bits(gotBase) != math.Float64bits(wantBase) {
						t.Fatalf("instance %d pair %d range [%d,%d): base %v, table %v", inst, pi, lo, lo+k, gotBase, wantBase)
					}
					for c := range want {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("instance %d pair %d range [%d,%d): ps[%d] = %v, table %v", inst, pi, lo, lo+k, c, got[c], want[c])
						}
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d ranges checked", checked)
}
