package assigner

import (
	"repro/internal/obs"
)

// Metric family names exported by the assigner's solvers (DESIGN.md §8).
const (
	metricSolverPlanTime     = "llmpq_solver_time_to_plan_seconds"
	metricSolverCombinations = "llmpq_solver_combinations_total"
	metricSolverPlanFailures = "llmpq_solver_plan_failures_total"
	metricSolverDPCells      = "llmpq_solver_dp_cells_total"
	metricSolverILPNodes     = "llmpq_solver_ilp_nodes_total"
	metricSolverILPPivots    = "llmpq_solver_ilp_pivots_total"
	// SolveCache lookup counters (flushed by SolveCache.Export). Hit/miss
	// totals are deterministic for a deterministic workload — exactly one
	// miss is ever counted per cache key — so they live in the sim
	// llmpq_solver_* family.
	metricSolverCacheHits   = "llmpq_solver_cache_hits_total"
	metricSolverCacheMisses = "llmpq_solver_cache_misses_total"
)

// obsPlanDone records one completed Optimize call: end-to-end time to plan
// and the (order, micro-batch) combinations enumerated. Nil registry = no-op.
func obsPlanDone(r *obs.Registry, method Method, seconds float64, combinations int) {
	if r == nil {
		return
	}
	ml := obs.L("method", method.String())
	r.Histogram(metricSolverPlanTime, obs.TimeBuckets(), ml).Observe(seconds)
	r.Counter(metricSolverCombinations, ml).Add(float64(combinations))
}

// obsPlanFail records one failed Optimize call. Failed solves still cost
// planning time and explored combinations, so they land in the same
// families as successes, plus a failure counter. Nil registry = no-op.
func obsPlanFail(r *obs.Registry, method Method, seconds float64, combinations int) {
	if r == nil {
		return
	}
	ml := obs.L("method", method.String())
	r.Histogram(metricSolverPlanTime, obs.TimeBuckets(), ml).Observe(seconds)
	r.Counter(metricSolverCombinations, ml).Add(float64(combinations))
	r.Counter(metricSolverPlanFailures, ml).Inc()
}

// obsDPCells accumulates the DP cells one solveDP pass scans: for every
// reachable (stage, range end, group count) that can lie on a path to
// (n, L), so the last stage only at range end L, the stage's
// memory-feasible (pair, count) mixtures that meet the pass's time caps.
// A (stage, range end) cell that a capped pass takes from the
// unconstrained pass scans none, and an ε pass that an earlier pass
// decides is not run and scans none.
func obsDPCells(r *obs.Registry, cells int) {
	if r == nil || cells == 0 {
		return
	}
	r.Counter(metricSolverDPCells).Add(float64(cells))
}

// obsILPSolve accumulates branch-and-bound nodes and simplex pivots of one
// MILP solve.
func obsILPSolve(r *obs.Registry, nodes, pivots int) {
	if r == nil {
		return
	}
	r.Counter(metricSolverILPNodes).Add(float64(nodes))
	r.Counter(metricSolverILPPivots).Add(float64(pivots))
}
