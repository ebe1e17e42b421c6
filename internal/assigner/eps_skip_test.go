package assigner_test

import (
	"fmt"
	"testing"

	"repro/internal/assigner"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestEpsSkipMatchesOracleOnTable3 runs the ε-skip check on every Table-3
// cluster under both workloads, solved with MethodDP whatever the
// cluster's own method.
func TestEpsSkipMatchesOracleOnTable3(t *testing.T) {
	works := []struct {
		name string
		work assigner.Workload
	}{{"default", experiments.DefaultWork}, {"short", experiments.ShortWork}}
	for cid := 1; cid <= 11; cid++ {
		for _, w := range works {
			cid, w := cid, w
			t.Run(fmt.Sprintf("cluster%d-%s", cid, w.name), func(t *testing.T) {
				s, err := experiments.SpecFor(cid, w.work)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("saved %.0f cells", assigner.CheckEpsSkip(t, s))
			})
		}
	}
}

// benchDPCells is llmpq_solver_dp_cells_total after one cold solve of each
// plan-failover spec: the cells the DP passes scan, where a cell a capped
// pass takes from the unconstrained pass counts none. The heuristic
// clusters 4 and 5 run no DP.
var benchDPCells = map[int]float64{3: 760007, 4: 0, 5: 0, 6: 1581393, 7: 173494, 8: 289082}

// TestDPCellsPinned pins the DP cells of each benchmark cluster's cold
// solve exactly, at parallelism 1, 4 and 8: the counter is a sum over
// combinations, so it must not depend on the worker count, and a change
// that widens the DP's domain, runs a pass the ε scan now skips or scans
// a cell the unconstrained pass decides shows up as a diff here.
func TestDPCellsPinned(t *testing.T) {
	for _, cid := range benchClusters {
		for _, workers := range []int{1, 4, 8} {
			s := benchSpec(t, cid)
			s.Parallelism = workers
			reg := obs.NewRegistry()
			s.Obs = reg
			if _, err := assigner.Optimize(s, nil); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("llmpq_solver_dp_cells_total").Value(); got != benchDPCells[cid] {
				t.Errorf("cluster %d, parallelism %d: %.0f DP cells, want %.0f", cid, workers, got, benchDPCells[cid])
			}
		}
	}
}
