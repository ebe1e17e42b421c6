package assigner_test

import (
	"fmt"
	"testing"

	"repro/internal/assigner"
)

// TestTransferMatchesOracleOnBenchClusters checks Algorithm 2's search
// against its oracle from the DP and adabits seeds of every combination
// the plan-failover benchmark solves, and the heuristic method's path
// where a cluster uses it.
func TestTransferMatchesOracleOnBenchClusters(t *testing.T) {
	for _, cid := range benchClusters {
		t.Run(fmt.Sprintf("cluster%d", cid), func(t *testing.T) {
			assigner.CheckTransferStarts(t, benchSpec(t, cid))
		})
	}
}

// TestDeltaMatchesEvaluateOnBenchClusters prices every candidate of seeded
// random plans on the benchmark's specs by delta and by Evaluate, and
// requires them bit-equal.
func TestDeltaMatchesEvaluateOnBenchClusters(t *testing.T) {
	for _, cid := range benchClusters {
		t.Run(fmt.Sprintf("cluster%d", cid), func(t *testing.T) {
			assigner.CheckDeltaWalk(t, benchSpec(t, cid), int64(cid), 3)
		})
	}
}
