package assigner

import (
	"errors"
	"math"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// solveILP builds and solves the paper's MILP (eqs 4–16) for a fixed
// device ordering and micro-batch sizing.
//
// Optimize calls it from concurrent order-workers: the Tables are shared
// read-only, every matrix built here and all branch-and-bound state in
// internal/ilp is confined to the call, and the node/pivot tallies flow
// into the concurrency-safe registry, so no synchronization is needed
// beyond the pool's own barrier.
//
// Variables: binary z[g][j][b] (group g on stage j at bit b) plus two
// continuous epigraph variables TpreMax, TdecMax that linearize the
// pipeline-max terms. Constraints: each group placed exactly once (eq 9),
// per-stage memory (eqs 12–13), stage times ≤ Tmax (within eq 4), stages
// non-empty and contiguous (eqs 15–16, via stage-index monotonicity).
func solveILP(t *Tables, order []int, limit time.Duration) (*Plan, error) {
	s := t.Spec
	n := len(order)
	L := s.layerGroups()
	nb := len(s.Bits)
	nz := L * n * nb
	nv := nz + 2 // + TpreMax, TdecMax
	idx := func(g, j, b int) int { return (g*n+j)*nb + b }
	iPre, iDec := nz, nz+1

	kp, rounds := t.rounds()

	c := make([]float64, nv)
	for g := 0; g < L; g++ {
		for j := 0; j < n; j++ {
			d := order[j]
			for b := 0; b < nb; b++ {
				w, err := s.Omega.At(g, s.Bits[b])
				if err != nil {
					return nil, err
				}
				c[idx(g, j, b)] = t.TPre[d][b] + t.TDec[d][b] + s.Theta*w
			}
		}
	}
	c[iPre] = float64(kp - 1)
	if rounds > 0 {
		c[iDec] = float64(rounds - 1)
	}

	var aub [][]float64
	var bub []float64
	var aeq [][]float64
	var beq []float64

	// Each group on exactly one (stage, bit).
	for g := 0; g < L; g++ {
		row := make([]float64, nv)
		for j := 0; j < n; j++ {
			for b := 0; b < nb; b++ {
				row[idx(g, j, b)] = 1
			}
		}
		aeq = append(aeq, row)
		beq = append(beq, 1)
	}
	for j := 0; j < n; j++ {
		d := order[j]
		cPre, cDec, cMem := StageConstants(t, order, j)
		// Memory.
		mrow := make([]float64, nv)
		for g := 0; g < L; g++ {
			for b := 0; b < nb; b++ {
				mrow[idx(g, j, b)] = t.GroupMem[b]
			}
		}
		aub = append(aub, mrow)
		bub = append(bub, t.Capacity[d]-cMem)
		// Stage prefill time ≤ TpreMax.
		prow := make([]float64, nv)
		drow := make([]float64, nv)
		for g := 0; g < L; g++ {
			for b := 0; b < nb; b++ {
				prow[idx(g, j, b)] = t.TPre[d][b]
				drow[idx(g, j, b)] = t.TDec[d][b]
			}
		}
		prow[iPre] = -1
		drow[iDec] = -1
		aub = append(aub, prow)
		bub = append(bub, -cPre)
		aub = append(aub, drow)
		bub = append(bub, -cDec)
		// Stage non-empty.
		nrow := make([]float64, nv)
		for g := 0; g < L; g++ {
			for b := 0; b < nb; b++ {
				nrow[idx(g, j, b)] = -1
			}
		}
		aub = append(aub, nrow)
		bub = append(bub, -1)
	}
	// Contiguity (eq 16): if group g sits on stage j, group g−1 must sit on
	// a stage ≤ j. Formulated per (g, j) — Σ_b z[g][j][b] ≤ Σ_{k≤j, b}
	// z[g−1][k][b] — which is much tighter in the LP relaxation than an
	// aggregated stage-index inequality.
	for g := 1; g < L; g++ {
		for j := 0; j < n-1; j++ { // j = n−1 is vacuous
			row := make([]float64, nv)
			for b := 0; b < nb; b++ {
				row[idx(g, j, b)] = 1
			}
			for k := 0; k <= j; k++ {
				for b := 0; b < nb; b++ {
					row[idx(g-1, k, b)] -= 1
				}
			}
			aub = append(aub, row)
			bub = append(bub, 0)
		}
	}

	ints := make([]bool, nv)
	ups := make([]float64, nv)
	for i := 0; i < nz; i++ {
		ints[i] = true
		ups[i] = 1
	}
	ups[iPre] = math.Inf(1)
	ups[iDec] = math.Inf(1)

	res, err := ilp.Solve(&ilp.Problem{
		C: c, Aub: aub, Bub: bub, Aeq: aeq, Beq: beq, Integer: ints, Upper: ups,
	}, limit)
	obsILPSolve(s.Obs, res.Nodes, res.Pivots)
	if errors.Is(err, ilp.ErrNoIncumbent) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, nil
	}

	p := &Plan{
		Order:      append([]int(nil), order...),
		Boundaries: make([]int, n+1),
		GroupBits:  make([]int, L),
		Group:      s.groupSize(),
		PrefillMB:  t.PrefillMB,
		DecodeMB:   t.DecodeMB,
	}
	stageOf := make([]int, L)
	for g := 0; g < L; g++ {
		found := false
		for j := 0; j < n && !found; j++ {
			for b := 0; b < nb; b++ {
				if res.X[idx(g, j, b)] > 0.5 {
					stageOf[g] = j
					p.GroupBits[g] = s.Bits[b]
					found = true
					break
				}
			}
		}
		if !found {
			return nil, errors.New("assigner: ILP solution leaves a group unassigned")
		}
	}
	for j := 1; j <= n; j++ {
		// Boundary j = first group at stage ≥ j.
		bnd := L
		for g := 0; g < L; g++ {
			if stageOf[g] >= j {
				bnd = g
				break
			}
		}
		p.Boundaries[j] = bnd
	}
	p.Boundaries[n] = L
	return p, nil
}
