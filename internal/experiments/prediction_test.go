package experiments_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/assigner"
	"repro/internal/experiments"
	"repro/internal/hardware"
	rt "repro/internal/runtime"
)

// predictionTolerance bounds |simulated/predicted − 1| on every Table 3
// cluster's optimal plan. The residual is the runtime's event-level
// scheduling, which the planner's pipeline formula does not model; on
// clusters 1–11 under both workloads it stays within about 1 %.
const predictionTolerance = 0.02

// TestPlannerPredictsSimulatedLatency solves every Table 3 cluster under
// the default and the short workload, runs the chosen plan on the
// pipeline simulator with the same timer, and holds the simulated latency
// to the planner's prediction within predictionTolerance.
func TestPlannerPredictsSimulatedLatency(t *testing.T) {
	works := []struct {
		name string
		work assigner.Workload
	}{{"default", experiments.DefaultWork}, {"short", experiments.ShortWork}}
	for id := 1; id <= len(hardware.Clusters); id++ {
		for _, w := range works {
			id, w := id, w
			t.Run(fmt.Sprintf("cluster%d/%s", id, w.name), func(t *testing.T) {
				s, err := experiments.SpecFor(id, w.work)
				if err != nil {
					t.Fatal(err)
				}
				res, err := assigner.Optimize(s, assigner.ProfilerTimer{})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := rt.NewEngine(s, res.Plan, assigner.ProfilerTimer{})
				if err != nil {
					t.Fatal(err)
				}
				st, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				ratio := st.LatencySec / res.Eval.LatencySec
				if math.Abs(ratio-1) > predictionTolerance {
					t.Errorf("simulated %.6gs vs predicted %.6gs: ratio %.4f, want within %.0f%% of 1",
						st.LatencySec, res.Eval.LatencySec, ratio, predictionTolerance*100)
				}
			})
		}
	}
}
