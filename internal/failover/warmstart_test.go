package failover

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/assigner"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

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
	// Wall-clock replan latency lands on the control registry only.
	if got := ctrl.Histogram("llmpq_failover_replan_seconds", obs.TimeBuckets()).Count(); got != 1 {
		t.Errorf("replan latency histogram observed %d times on ctrl registry, want 1", got)
	}
}

// TestWarmTransitionsMatchColdOnBenchClusters is the warm-equals-cold
// invariant on the plan-failover benchmark's own specs (Table-3 clusters
// 3–8 under DefaultWork): with a cache seeded by the cold pre-loss solve,
// every single-device-loss shrink and the full restore that follows it
// must deep-equal a cold, cacheless Optimize on the same membership — or
// both must be infeasible — at parallelism 1, 4 and 8. The restore must
// return the pre-loss plan without a single cache miss.
func TestWarmTransitionsMatchColdOnBenchClusters(t *testing.T) {
	pars := []int{1, 4, 8}
	for _, id := range []int{3, 4, 5, 6, 7, 8} {
		base, err := experiments.SpecFor(id, experiments.DefaultWork)
		if err != nil {
			t.Fatal(err)
		}
		// Cold references, one per membership: plans are independent of
		// parallelism, so each is solved once.
		fullCold, err := assigner.Optimize(base, nil)
		if err != nil {
			t.Fatalf("cluster %d: cold solve: %v", id, err)
		}
		n := len(base.Cluster.Devices)
		shrinkCold := make([]*assigner.Result, n)
		shrinkErr := make([]error, n)
		for dev := 0; dev < n; dev++ {
			cold := *base
			if cold.Cluster, _, err = subCluster(base.Cluster, Members(base.Cluster, dev)); err != nil {
				t.Fatal(err)
			}
			shrinkCold[dev], shrinkErr[dev] = assigner.Optimize(&cold, nil)
		}

		for _, par := range pars {
			spec := *base
			spec.Parallelism = par
			spec.Cache = assigner.NewSolveCache()
			res, err := assigner.Optimize(&spec, nil)
			if err != nil {
				t.Fatalf("cluster %d par %d: seeding solve: %v", id, par, err)
			}
			if !reflect.DeepEqual(res.Plan, fullCold.Plan) {
				t.Fatalf("cluster %d par %d: seeding solve differs from the cold solve", id, par)
			}
			w := spec.Work.Generate / 2
			for dev := 0; dev < n; dev++ {
				lost := &rt.DeviceLostError{
					Stage: slices.Index(res.Plan.Order, dev), Device: dev, AtSec: 1,
					Watermark: w, DurableTokens: w * spec.Work.GlobalBatch, PrefillDone: true,
				}
				out, werr := Transition(&spec, res.Plan, nil, nil, Members(spec.Cluster, dev), lost, nil, nil, nil)
				if (werr == nil) != (shrinkErr[dev] == nil) {
					t.Fatalf("cluster %d par %d loss of %d: warm err %v, cold err %v", id, par, dev, werr, shrinkErr[dev])
				}
				if werr != nil {
					continue
				}
				checkWarmOutcome(t, out, shrinkCold[dev], fmt.Sprintf("cluster %d par %d loss of %d", id, par, dev))

				halt := &rt.RestoreHaltError{AtSec: 2, Watermark: w + 1, DurableTokens: (w + 1) * spec.Work.GlobalBatch, PrefillDone: true}
				misses := spec.Cache.Stats().Misses
				rout, err := Transition(&spec, res.Plan, nil, out, Members(spec.Cluster), halt, nil, nil, nil)
				if err != nil {
					t.Fatalf("cluster %d par %d restore of %d: %v", id, par, dev, err)
				}
				// The seeding solve already covered the full fleet, so the
				// restore must be served entirely from the cache.
				if got := spec.Cache.Stats().Misses; got != misses {
					t.Errorf("cluster %d par %d restore of %d: %d cache misses, want 0", id, par, dev, got-misses)
				}
				checkWarmOutcome(t, rout, fullCold, fmt.Sprintf("cluster %d par %d restore of %d", id, par, dev))
				if !reflect.DeepEqual(rout.Plan, res.Plan) {
					t.Errorf("cluster %d par %d restore of %d: did not return to the pre-loss plan", id, par, dev)
				}
			}
		}
	}
}

// checkWarmOutcome asserts a transition's plan, and its evaluation on the
// outcome's own spec, deep-equal a cold solve's.
func checkWarmOutcome(t *testing.T, out *Outcome, cold *assigner.Result, what string) {
	t.Helper()
	if !reflect.DeepEqual(out.Plan, cold.Plan) {
		t.Errorf("%s: warm plan diverged from cold:\ncold: %+v\nwarm: %+v", what, cold.Plan, out.Plan)
		return
	}
	tables, err := assigner.BuildTables(out.Degraded, assigner.ProfilerTimer{}, out.Plan.PrefillMB)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := assigner.Evaluate(tables, out.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev, cold.Eval) {
		t.Errorf("%s: warm evaluation diverged from cold:\ncold: %+v\nwarm: %+v", what, cold.Eval, ev)
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
