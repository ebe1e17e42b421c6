package assigner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hardware"
)

// Result bundles the best plan with its evaluation and solve metadata.
type Result struct {
	Plan     *Plan
	Eval     Evaluation
	Solve    time.Duration
	Explored int // (order, micro-batch) combinations tried
}

// parallelism resolves the effective worker count for one Optimize call.
func (s *Spec) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.NumCPU()
}

// comboOutcome is the result of one (micro-batch, order) combination.
// plan == nil with err == nil means the combination is infeasible.
type comboOutcome struct {
	plan *Plan
	ev   *Evaluation
	err  error
}

// testComboFault, when non-nil, injects an error before solving the given
// canonical combination index — the test seam for the early-abort path.
// Production code never sets it.
var testComboFault func(idx int) error

// Optimize is Algorithm 1: enumerate candidate device orderings and
// (phase, micro-batch size) pairs in the pruned search space; for each,
// solve the inner bitwidth-assignment / layer-partition problem with the
// spec's Method; return the plan with the best exact objective.
//
// The scan runs on a bounded worker pool of Spec.Parallelism goroutines,
// the solve's only concurrency: each inner solve runs serially. Each
// prefill micro-batch's Tables are built once and shared read-only by
// every order-worker; results land in a slot indexed by the canonical
// combination index (micro-batch index × #orders + order index) and are
// reduced in that index order with the serial search's strict-improvement
// rule, so the winning plan — and any error reported — is byte-identical
// to a serial scan regardless of goroutine scheduling. Solver metrics
// (Spec.Obs) aggregate through the registry's own synchronization;
// counter totals are order-independent.
func Optimize(s *Spec, timer LayerTimer) (*Result, error) {
	start := time.Now() //llmpq:allow(simwallclock): measures the solver's own wall time for reporting; plan bytes never depend on it
	explored := 0
	fail := func(err error) (*Result, error) {
		//llmpq:allow(simwallclock): solver wall-time observation only; the failure itself is deterministic
		obsPlanFail(s.Obs, s.Method, time.Since(start).Seconds(), explored)
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	if timer == nil {
		timer = ProfilerTimer{}
	}
	orders := CandidateOrders(s.Cluster)
	mbps := s.prefillCandidates()

	// Build each micro-batch's cost tables once, up front; the inner
	// solvers only ever read them. A build takes microseconds, so it runs
	// serially and the first error — the lowest micro-batch index — is the
	// one reported.
	tables := make([]*Tables, len(mbps))
	for i, mb := range mbps {
		var err error
		if tables[i], err = BuildTables(s, timer, mb); err != nil {
			return fail(err)
		}
	}

	// One benefit table serves every inner solve of this call. The DP's
	// full table is shared with future calls through the cache (see
	// benefitsFor); the adabits and heuristic methods read one range per
	// stage, so they get a table without prefix sums. MethodILP reads none.
	var bt *benefitTable
	var err error
	switch s.Method {
	case MethodDP:
		bt, err = benefitsFor(s)
	case MethodAdabits, MethodHeuristic:
		bt, err = buildBenefitBase(s)
	}
	if err != nil {
		return fail(err)
	}

	combos := len(mbps) * len(orders)
	results := make([]comboOutcome, combos)
	workers := s.parallelism()
	if workers > combos {
		workers = combos
	}
	comboBase := ""
	if s.Cache != nil {
		if timerKey, ok := timerCacheKey(timer); ok {
			comboBase = s.comboBaseKey(timerKey)
		}
	}
	solveCombo := func(idx int) (*Plan, *Evaluation, error) {
		t := tables[idx/len(orders)]
		order := orders[idx%len(orders)]
		if comboBase == "" {
			return solveInner(s, t, order, bt)
		}
		return s.Cache.combo(comboKey(comboBase, t.PrefillMB, order), func() (*Plan, *Evaluation, error) {
			return solveInner(s, t, order, bt)
		})
	}
	// Early abort (ROADMAP): a hard solver error cancels the context so
	// in-flight workers stop claiming new combinations instead of
	// finishing the scan. Determinism of the reported error survives
	// cancellation: the atomic counter hands out indices in increasing
	// order and workers only abort *between* combinations, so the claimed
	// set is always a prefix [0, next) that runs to completion before the
	// barrier — the canonical-order scan below still sees every index
	// below any erroring one, and reports the lowest.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				idx := int(next.Add(1)) - 1
				if idx >= combos {
					return
				}
				var plan *Plan
				var ev *Evaluation
				var err error
				if testComboFault != nil {
					err = testComboFault(idx)
				}
				if err == nil {
					plan, ev, err = solveCombo(idx)
				}
				results[idx] = comboOutcome{plan: plan, ev: ev, err: err}
				if err != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if explored = int(next.Load()); explored > combos {
		explored = combos
	}

	// Deterministic reduction over the canonical combination order.
	var best *Plan
	var bestEv Evaluation
	for _, r := range results {
		if r.err != nil {
			return fail(r.err)
		}
		if r.plan == nil {
			continue
		}
		if best == nil || r.ev.Objective < bestEv.Objective {
			best, bestEv = r.plan, *r.ev
		}
	}
	if best == nil {
		return fail(fmt.Errorf("assigner: no feasible plan for %s on %s (method %s): even the lowest precisions exceed device memory",
			s.Cfg.Name, s.Cluster.Name, s.Method))
	}
	best.Finalize(bestEv)
	solve := time.Since(start) //llmpq:allow(simwallclock): reported solve duration; the chosen plan is independent of it
	obsPlanDone(s.Obs, s.Method, solve.Seconds(), explored)
	return &Result{Plan: best, Eval: bestEv, Solve: solve, Explored: explored}, nil
}

func solveInner(s *Spec, t *Tables, order []int, bt *benefitTable) (*Plan, *Evaluation, error) {
	switch s.Method {
	case MethodDP:
		return solveStructured(t, order, bt)
	case MethodILP:
		plan, err := solveILP(t, order, s.TimeLimit)
		if err != nil || plan == nil {
			return nil, nil, err
		}
		return evaluated(t, plan)
	case MethodAdabits:
		plan, err := solveAdabits(t, order, bt)
		if err != nil || plan == nil {
			return nil, nil, err
		}
		return evaluated(t, plan)
	case MethodHeuristic:
		seed, err := solveAdabits(t, order, bt)
		if err != nil || seed == nil {
			return nil, nil, err
		}
		plan, ev, err := bitwidthTransfer(t, seed)
		if err != nil {
			return nil, nil, err
		}
		if !ev.Feasible {
			return nil, nil, nil
		}
		return plan, ev, nil
	default:
		return nil, nil, fmt.Errorf("assigner: unknown method %v", s.Method)
	}
}

func evaluated(t *Tables, p *Plan) (*Plan, *Evaluation, error) {
	ev, err := Evaluate(t, p)
	if err != nil {
		return nil, nil, err
	}
	if !ev.Feasible {
		return nil, nil, nil
	}
	return p, &ev, nil
}

// CandidateOrders enumerates device orderings as permutations of same-type
// blocks (devices of one GPU type are interchangeable, so only the relative
// order of types matters — the pruning the paper's GetDeviceOrder relies
// on).
func CandidateOrders(c hardware.Cluster) [][]int {
	var typeNames []string
	blocks := map[string][]int{}
	for i, d := range c.Devices {
		name := d.GPU.Name
		if _, seen := blocks[name]; !seen {
			typeNames = append(typeNames, name)
		}
		blocks[name] = append(blocks[name], i)
	}
	perms := permutations(len(typeNames))
	var out [][]int
	for _, pm := range perms {
		var order []int
		for _, ti := range pm {
			order = append(order, blocks[typeNames[ti]]...)
		}
		out = append(out, order)
	}
	return out
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			rec(append(cur, i), used)
			used[i] = false
		}
	}
	rec(nil, make([]bool, n))
	return out
}
