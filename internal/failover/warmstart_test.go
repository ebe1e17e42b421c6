package failover

import (
	"reflect"
	"testing"

	"repro/internal/assigner"
	"repro/internal/core"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// incumbentSpec only exists to give SurvivorIncumbent a decode
// micro-batch to recompute; the plan projections below are handcrafted.
func incumbentSpec(devices int) *assigner.Spec {
	s := edgeSpec(3.0, 3.0)
	for len(s.Cluster.Devices) > devices {
		s.Cluster.Devices = s.Cluster.Devices[:len(s.Cluster.Devices)-1]
	}
	return s
}

// TestSurvivorIncumbentProjections pins the merge rules: a lost middle
// stage folds into the preceding survivor, a lost leading stage folds
// into the first survivor, and losing everything projects to nil.
func TestSurvivorIncumbentProjections(t *testing.T) {
	plan := &assigner.Plan{
		Order:      []int{0, 1, 2},
		Boundaries: []int{0, 2, 5, 8},
		GroupBits:  []int{8, 8, 4, 4, 4, 16, 16, 16},
		Group:      1, PrefillMB: 2, DecodeMB: 3,
	}
	degraded := incumbentSpec(1)

	t.Run("middle-loss", func(t *testing.T) {
		// Device 1 died; survivors old 0 -> new 0, old 2 -> new 1.
		inc := SurvivorIncumbent(plan, []int{0, 2}, degraded)
		if inc == nil {
			t.Fatal("two survivors projected to nil")
		}
		if !reflect.DeepEqual(inc.Order, []int{0, 1}) {
			t.Errorf("order %v, want [0 1]", inc.Order)
		}
		// Stage 1's groups [2,5) merge into the preceding survivor.
		if !reflect.DeepEqual(inc.Boundaries, []int{0, 5, 8}) {
			t.Errorf("boundaries %v, want [0 5 8]", inc.Boundaries)
		}
		if !reflect.DeepEqual(inc.GroupBits, plan.GroupBits) {
			t.Errorf("group bits %v changed in projection", inc.GroupBits)
		}
		if inc.PrefillMB != plan.PrefillMB {
			t.Errorf("prefill micro-batch %d, want %d", inc.PrefillMB, plan.PrefillMB)
		}
		if want := degraded.DecodeMicroBatch(); inc.DecodeMB != want {
			t.Errorf("decode micro-batch %d, want recomputed %d", inc.DecodeMB, want)
		}
	})
	t.Run("leading-loss", func(t *testing.T) {
		// Device 0 died; its leading groups [0,2) fold into the first
		// survivor.
		inc := SurvivorIncumbent(plan, []int{1, 2}, degraded)
		if inc == nil {
			t.Fatal("two survivors projected to nil")
		}
		if !reflect.DeepEqual(inc.Order, []int{0, 1}) {
			t.Errorf("order %v, want [0 1]", inc.Order)
		}
		if !reflect.DeepEqual(inc.Boundaries, []int{0, 5, 8}) {
			t.Errorf("boundaries %v, want [0 5 8]", inc.Boundaries)
		}
	})
	t.Run("no-survivors", func(t *testing.T) {
		if inc := SurvivorIncumbent(plan, nil, degraded); inc != nil {
			t.Errorf("no survivors must project to nil, got %+v", inc)
		}
	})
	t.Run("nil-plan", func(t *testing.T) {
		if inc := SurvivorIncumbent(nil, []int{0}, degraded); inc != nil {
			t.Errorf("nil plan must project to nil, got %+v", inc)
		}
	})
}

// TestReplanWarmMatchesCold: the same device loss healed through a
// seeded SolveCache and a cold spec must produce identical outcomes, and
// the warm replan must actually hit the cache — the counters land on the
// sim registry via Export.
func TestReplanWarmMatchesCold(t *testing.T) {
	mkLost := func(plan *assigner.Plan) *rt.DeviceLostError {
		return &rt.DeviceLostError{
			Stage: 0, Device: plan.Order[0], AtSec: 0.5,
			Watermark: 4, DurableTokens: 32, PrefillDone: true,
		}
	}

	cold := edgeSpec(3.0, 3.0)
	coldRes, err := assigner.Optimize(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldOut, err := Replan(cold, coldRes.Plan, assigner.ProfilerTimer{}, mkLost(coldRes.Plan), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	warm := edgeSpec(3.0, 3.0)
	warm.Cache = assigner.NewSolveCache()
	warmRes, err := assigner.Optimize(warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRes.Plan, warmRes.Plan) {
		t.Fatalf("initial solves diverged before the replan")
	}
	reg := obs.NewRegistry()
	ctrl := obs.NewRegistry()
	warmOut, err := Replan(warm, warmRes.Plan, assigner.ProfilerTimer{}, mkLost(warmRes.Plan), reg, ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(coldOut.Plan, warmOut.Plan) {
		t.Errorf("warm replan diverged from cold:\ncold: %+v\nwarm: %+v", coldOut.Plan, warmOut.Plan)
	}
	if !reflect.DeepEqual(coldOut.Migration, warmOut.Migration) {
		t.Errorf("migration bill diverged: cold %+v, warm %+v", coldOut.Migration, warmOut.Migration)
	}
	if coldOut.MovedLayers != warmOut.MovedLayers || coldOut.StartRound != warmOut.StartRound {
		t.Errorf("outcome bookkeeping diverged: cold %+v, warm %+v", coldOut, warmOut)
	}
	if st := warm.Cache.Stats(); st.Hits < 1 {
		t.Errorf("warm replan never hit the seeded cache (stats %+v)", st)
	}
	if got := reg.Counter("llmpq_solver_cache_hits_total").Value(); got < 1 {
		t.Errorf("replan exported %v cache hits to the sim registry, want >= 1", got)
	}
	// The incumbent is consumed, not retained: the outcome's spec must be
	// reusable without warm-start state.
	if warmOut.Degraded.Incumbent != nil {
		t.Error("degraded spec retains the incumbent after the replan")
	}
	// Wall-clock replan latency lands on the control registry only.
	if got := ctrl.Histogram("llmpq_failover_replan_seconds", obs.TimeBuckets()).Count(); got != 1 {
		t.Errorf("replan latency histogram observed %d times on ctrl registry, want 1", got)
	}
}

// benchReplanSetup plans the paper's cluster 3 and fabricates the
// mid-decode loss of the plan's last stage.
func benchReplanSetup(b *testing.B) (*assigner.Spec, *assigner.Plan, *rt.DeviceLostError) {
	b.Helper()
	spec, err := core.BuildSpec(core.Request{
		ClusterID:   3,
		GlobalBatch: 8,
		PromptLen:   128,
		Generate:    16,
		Theta:       0.1,
		Group:       6,
		Method:      assigner.MethodDP,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := assigner.Optimize(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	stage := res.Plan.NumStages() - 1
	lost := &rt.DeviceLostError{
		Stage: stage, Device: res.Plan.Order[stage], AtSec: 1.0,
		Watermark: 8, DurableTokens: 64, PrefillDone: true,
	}
	return spec, res.Plan, lost
}

// BenchmarkReplan compares the failover replan cold (every solve from
// scratch) against warm (SolveCache seeded by the initial solve plus one
// prior replan — the steady state of a controller that has healed
// before). The warm path memoizes whole combination outcomes, so the
// speedup holds even on a single-core host.
func BenchmarkReplan(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		spec, plan, lost := benchReplanSetup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Replan(spec, plan, assigner.ProfilerTimer{}, lost, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		spec, plan, lost := benchReplanSetup(b)
		spec.Cache = assigner.NewSolveCache()
		if _, err := assigner.Optimize(spec, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := Replan(spec, plan, assigner.ProfilerTimer{}, lost, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Replan(spec, plan, assigner.ProfilerTimer{}, lost, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
