package assigner_test

import (
	"fmt"
	"testing"

	"repro/internal/assigner"
	"repro/internal/experiments"
)

// benchClusters are the Table-3 clusters the plan-failover benchmark
// cycles. Their experiments settings cover grouping 1 and 2, θ from 1 to
// 1000 and the heuristic method, which the θ = 0.1 fixtures do not.
var benchClusters = []int{3, 4, 5, 6, 7, 8}

// benchSpec is the exact spec the benchmark cold-solves for a cluster.
func benchSpec(t testing.TB, cid int) *assigner.Spec {
	t.Helper()
	s, err := experiments.SpecFor(cid, experiments.DefaultWork)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallelism = 1
	return s
}

// TestGoldenBenchPlans pins the cold plans of the benchmark's specs byte
// for byte.
func TestGoldenBenchPlans(t *testing.T) {
	for _, cid := range benchClusters {
		cid := cid
		t.Run(fmt.Sprintf("cluster%d", cid), func(t *testing.T) {
			s := benchSpec(t, cid)
			res, err := assigner.Optimize(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("bench-cluster%d", cid), goldenOf(cid, s.Cfg.Name, res.Plan), true)
		})
	}
}

// BenchmarkColdOptimize times one cold Optimize of each spec the
// plan-failover benchmark solves: no solve cache, planner parallelism 1.
//
//	go test ./internal/assigner -run '^$' -bench ColdOptimize
func BenchmarkColdOptimize(b *testing.B) {
	for _, cid := range benchClusters {
		b.Run(fmt.Sprintf("cluster%d", cid), func(b *testing.B) {
			s := benchSpec(b, cid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assigner.Optimize(s, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
