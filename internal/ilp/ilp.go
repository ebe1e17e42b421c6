// Package ilp solves small mixed-integer linear programs with LP-based
// branch and bound — the substitute for the Gurobi solver the paper uses
// for its bitwidth-assignment / layer-partition ILP (§4.3).
//
// The search is depth-first with best-incumbent pruning, most-fractional
// branching, and an optional wall-clock limit mirroring the paper's
// "60-second time limit for the ILP solver" (§6.7). Variable bounds are
// expressed as extra ≤ rows in the node LPs, which keeps internal/lp
// untouched.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
)

// Problem is a MILP: min cᵀx subject to inequality/equality constraints,
// x ≥ 0, per-variable upper bounds, and integrality on selected variables.
type Problem struct {
	C       []float64
	Aub     [][]float64
	Bub     []float64
	Aeq     [][]float64
	Beq     []float64
	Integer []bool    // len n; true = integral variable
	Upper   []float64 // len n; +Inf allowed (binary vars: 1)
}

// Result of a solve.
type Result struct {
	Status   lp.Status
	X        []float64
	Obj      float64
	Nodes    int  // branch-and-bound nodes explored
	Pivots   int  // simplex pivots summed across node relaxations
	TimedOut bool // hit the time limit; result is best incumbent if any
}

// ErrNoIncumbent is returned when the time limit expires before any integer
// feasible solution is found.
var ErrNoIncumbent = errors.New("ilp: time limit hit with no incumbent")

const intTol = 1e-6

// Validate checks dimensions.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("ilp: empty objective")
	}
	if len(p.Integer) != n {
		return fmt.Errorf("ilp: Integer length %d != %d", len(p.Integer), n)
	}
	if len(p.Upper) != n {
		return fmt.Errorf("ilp: Upper length %d != %d", len(p.Upper), n)
	}
	base := lp.Problem{C: p.C, Aub: p.Aub, Bub: p.Bub, Aeq: p.Aeq, Beq: p.Beq}
	return base.Validate()
}

type node struct {
	lower []float64
	upper []float64
}

// Solve runs branch and bound. A zero timeLimit means no limit.
//
// Solve is safe for concurrent use: the problem is only read and the node
// stack, incumbent, and every relaxation LP are confined to the call. The
// parallel assigner search runs one Solve per order-worker concurrently.
func Solve(p *Problem, timeLimit time.Duration) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.C)
	deadline := time.Time{}
	if timeLimit > 0 {
		deadline = time.Now().Add(timeLimit) //llmpq:allow(simwallclock): the time limit is a real compute budget for branch-and-bound, not sim time
	}

	root := node{lower: make([]float64, n), upper: append([]float64(nil), p.Upper...)}
	stack := []node{root}
	best := Result{Status: lp.Infeasible, Obj: math.Inf(1)}
	nodes := 0
	pivots := 0
	timedOut := false

	for len(stack) > 0 {
		//llmpq:allow(simwallclock): deadline check against the caller's real compute budget; timeout status is reported, never byte-diffed
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		rel, err := solveRelaxation(p, nd)
		if err != nil {
			return Result{}, err
		}
		pivots += rel.Pivots
		if rel.Status != lp.Optimal {
			continue // infeasible or unbounded subtree (unbounded cannot improve with bounds tightening here)
		}
		if rel.Obj >= best.Obj-1e-9 {
			continue // pruned by bound
		}
		// Find most fractional integer variable.
		branch := -1
		worst := intTol
		for j := 0; j < n; j++ {
			if !p.Integer[j] {
				continue
			}
			f := math.Abs(rel.X[j] - math.Round(rel.X[j]))
			if f > worst {
				worst = f
				branch = j
			}
		}
		if branch < 0 {
			// Integer feasible: round off the tolerance noise.
			x := append([]float64(nil), rel.X...)
			for j := 0; j < n; j++ {
				if p.Integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			obj := 0.0
			for j := range p.C {
				obj += p.C[j] * x[j]
			}
			if obj < best.Obj {
				best = Result{Status: lp.Optimal, X: x, Obj: obj}
			}
			continue
		}
		v := rel.X[branch]
		down := node{lower: append([]float64(nil), nd.lower...), upper: append([]float64(nil), nd.upper...)}
		down.upper[branch] = math.Floor(v)
		up := node{lower: append([]float64(nil), nd.lower...), upper: append([]float64(nil), nd.upper...)}
		up.lower[branch] = math.Ceil(v)
		// Push the branch nearer the relaxation value last so DFS explores
		// it first (better incumbents earlier).
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}

	best.Nodes = nodes
	best.Pivots = pivots
	best.TimedOut = timedOut
	if timedOut && best.Status != lp.Optimal {
		return best, ErrNoIncumbent
	}
	return best, nil
}

func solveRelaxation(p *Problem, nd node) (lp.Result, error) {
	n := len(p.C)
	sub := lp.Problem{C: p.C, Aeq: p.Aeq, Beq: p.Beq}
	sub.Aub = append(sub.Aub, p.Aub...)
	sub.Bub = append(sub.Bub, p.Bub...)
	for j := 0; j < n; j++ {
		if !math.IsInf(nd.upper[j], 1) {
			row := make([]float64, n)
			row[j] = 1
			sub.Aub = append(sub.Aub, row)
			sub.Bub = append(sub.Bub, nd.upper[j])
		}
		if nd.lower[j] > 0 {
			row := make([]float64, n)
			row[j] = -1
			sub.Aub = append(sub.Aub, row)
			sub.Bub = append(sub.Bub, -nd.lower[j])
		}
	}
	return lp.Solve(&sub)
}
