package assigner_test

import (
	"reflect"
	"testing"

	"repro/internal/assigner"
	"repro/internal/hardware"
)

// degradedGoldenSpec is goldenSpec after losing its last device — the
// replan instance a failover would solve on the surviving fleet.
func degradedGoldenSpec(t testing.TB, gc goldenCase) *assigner.Spec {
	t.Helper()
	s := goldenSpec(t, gc)
	n := len(s.Cluster.Devices)
	if n < 2 {
		t.Fatalf("%s: cluster too small to degrade", gc.name)
	}
	s.Cluster.Name += "-degraded"
	s.Cluster.Devices = append([]hardware.Device(nil), s.Cluster.Devices[:n-1]...)
	return s
}

// TestWarmReplanByteIdentical is the warm-start acceptance gate: for
// every golden fixture, a replan solve through a populated SolveCache
// must return a plan and evaluation deeply equal to a cold solve of the
// same degraded instance — at parallelism 1, 4, and 8. The cache is
// seeded by solving the full (pre-loss) instance, as failover does.
func TestWarmReplanByteIdentical(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			cache := assigner.NewSolveCache()
			full := goldenSpec(t, gc)
			full.Cache = cache
			if _, err := assigner.Optimize(full, nil); err != nil {
				t.Fatalf("seeding solve: %v", err)
			}

			for _, par := range []int{1, 4, 8} {
				cold := degradedGoldenSpec(t, gc)
				cold.Parallelism = par
				coldRes, coldErr := assigner.Optimize(cold, nil)

				warm := degradedGoldenSpec(t, gc)
				warm.Parallelism = par
				warm.Cache = cache
				warmRes, warmErr := assigner.Optimize(warm, nil)

				if (coldErr == nil) != (warmErr == nil) {
					t.Fatalf("parallelism %d: cold err %v, warm err %v", par, coldErr, warmErr)
				}
				if coldErr != nil {
					continue
				}
				if !reflect.DeepEqual(coldRes.Plan, warmRes.Plan) {
					t.Errorf("parallelism %d: warm plan diverged from cold:\ncold: %+v\nwarm: %+v",
						par, coldRes.Plan, warmRes.Plan)
				}
				if !reflect.DeepEqual(coldRes.Eval, warmRes.Eval) {
					t.Errorf("parallelism %d: warm evaluation diverged from cold", par)
				}
				if coldRes.Explored != warmRes.Explored {
					t.Errorf("parallelism %d: warm explored %d combinations, cold %d",
						par, warmRes.Explored, coldRes.Explored)
				}
			}
			if st := cache.Stats(); st.Hits == 0 {
				t.Error("replan solves never hit the seeded cache")
			}
		})
	}
}
