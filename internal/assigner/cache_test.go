package assigner

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/obs"
)

// cacheSpec is the staleness-audit base: tinySpec with enough memory that
// every mutation below stays feasible.
func cacheSpec() *Spec {
	return tinySpec(MethodDP, 0.1, 3, 3)
}

// TestSolveCacheRepeatSolveAddsNoMisses: re-solving an unchanged spec
// through a populated cache must hit on every lookup — zero new misses —
// and return the identical plan.
func TestSolveCacheRepeatSolveAddsNoMisses(t *testing.T) {
	s := cacheSpec()
	s.Cache = NewSolveCache()
	first, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.Cache.Stats()
	if st1.Misses == 0 {
		t.Fatal("first solve through an empty cache counted no misses")
	}
	second, err := Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.Cache.Stats()
	if st2.Misses != st1.Misses {
		t.Errorf("unchanged re-solve added %d misses, want 0", st2.Misses-st1.Misses)
	}
	if st2.Hits <= st1.Hits {
		t.Errorf("unchanged re-solve added no hits (%d -> %d)", st1.Hits, st2.Hits)
	}
	if !reflect.DeepEqual(first.Plan, second.Plan) {
		t.Errorf("cached re-solve diverged:\nfirst:  %+v\nsecond: %+v", first.Plan, second.Plan)
	}
	if !reflect.DeepEqual(first.Eval, second.Eval) {
		t.Errorf("cached re-solve evaluation diverged")
	}
}

// TestSolveCacheStaleness mutates each spec field that participates in a
// cache key and asserts two things: the lookup misses (no stale entry is
// served) and the warm result equals a cold solve of the mutated spec.
func TestSolveCacheStaleness(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Spec)
	}{
		{"work-prompt", func(s *Spec) { s.Work.Prompt += 64 }},
		{"work-global-batch", func(s *Spec) { s.Work.GlobalBatch = 16 }},
		{"work-generate", func(s *Spec) { s.Work.Generate += 16 }},
		{"theta", func(s *Spec) { s.Theta *= 2 }},
		{"omega-value", func(s *Spec) { s.Omega.Values[0][0] += 0.5 }},
		{"bits-subset", func(s *Spec) {
			s.Bits = []int{8, 16}
			s.Omega = subsetOmega(s.Omega, []int{8, 16})
		}},
		{"kv-bits", func(s *Spec) { s.KVBits = 8 }},
		{"model-hidden", func(s *Spec) { s.Cfg.Hidden += 512 }},
		{"gpu-compute-eff", func(s *Spec) {
			d := &s.Cluster.Devices[0]
			m := make(map[int]float64, len(d.GPU.ComputeEff))
			for k, v := range d.GPU.ComputeEff {
				m[k] = v
			}
			m[16] = 0.9
			d.GPU.ComputeEff = m
		}},
		{"gpu-memory", func(s *Spec) { s.Cluster.Devices[1].GPU.MemoryGB = 2.5 }},
		{"device-loss", func(s *Spec) {
			s.Cluster.Devices = s.Cluster.Devices[:1]
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seed := cacheSpec()
			seed.Cache = NewSolveCache()
			if _, err := Optimize(seed, nil); err != nil {
				t.Fatal(err)
			}
			m0 := seed.Cache.Stats().Misses

			cold := cacheSpec()
			tc.mutate(cold)
			coldRes, coldErr := Optimize(cold, nil)

			warm := cacheSpec()
			tc.mutate(warm)
			warm.Cache = seed.Cache
			warmRes, warmErr := Optimize(warm, nil)

			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("cold err %v, warm err %v — cache changed feasibility", coldErr, warmErr)
			}
			if coldErr != nil {
				return
			}
			if !reflect.DeepEqual(coldRes.Plan, warmRes.Plan) {
				t.Errorf("stale cache entry served:\ncold: %+v\nwarm: %+v", coldRes.Plan, warmRes.Plan)
			}
			if !reflect.DeepEqual(coldRes.Eval, warmRes.Eval) {
				t.Errorf("warm evaluation diverged from cold")
			}
			if m1 := warm.Cache.Stats().Misses; m1 <= m0 {
				t.Errorf("mutation %q never missed the cache (misses %d -> %d): a key is missing a field",
					tc.name, m0, m1)
			}
		})
	}
}

// TestSolveCacheExportDelta: Export flushes only the delta since the last
// Export, so repeated flushes across replans never double-count.
func TestSolveCacheExportDelta(t *testing.T) {
	s := cacheSpec()
	s.Cache = NewSolveCache()
	if _, err := Optimize(s, nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Cache.Export(reg)
	st := s.Cache.Stats()
	if got := reg.Counter(metricSolverCacheMisses).Value(); got != float64(st.Misses) {
		t.Errorf("misses counter %v after first export, want %d", got, st.Misses)
	}
	if got := reg.Counter(metricSolverCacheHits).Value(); got != float64(st.Hits) {
		t.Errorf("hits counter %v after first export, want %d", got, st.Hits)
	}

	if _, err := Optimize(s, nil); err != nil {
		t.Fatal(err)
	}
	s.Cache.Export(reg)
	st = s.Cache.Stats()
	if got := reg.Counter(metricSolverCacheMisses).Value(); got != float64(st.Misses) {
		t.Errorf("misses counter %v after second export, want %d (delta double-counted?)", got, st.Misses)
	}
	if got := reg.Counter(metricSolverCacheHits).Value(); got != float64(st.Hits) {
		t.Errorf("hits counter %v after second export, want %d", got, st.Hits)
	}
	// Exporting with nothing new must not move the counters.
	before := reg.Counter(metricSolverCacheMisses).Value()
	s.Cache.Export(reg)
	if got := reg.Counter(metricSolverCacheMisses).Value(); got != before {
		t.Errorf("no-op export moved the misses counter %v -> %v", before, got)
	}
	// Nil cache and nil registry are no-ops, not panics.
	var nilCache *SolveCache
	nilCache.Export(reg)
	s.Cache.Export(nil)
}

// TestMaxDeviceTypesRejected: a cluster mixing more GPU types than
// MaxDeviceTypes must fail validation with a clear error instead of
// disappearing into a factorial order enumeration.
func TestMaxDeviceTypesRejected(t *testing.T) {
	s := tinySpec(MethodDP, 0.1, 3, 3)
	// Large model so 7 devices still satisfy devices <= layer groups.
	s.Cfg.Layers = 24
	s.Omega = subsetOmega(indicator.Synthetic(s.Cfg, []int{3, 4, 8, 16}, 7), []int{4, 8, 16})
	s.Cluster.Devices = nil
	for i := 0; i < MaxDeviceTypes+1; i++ {
		g := tinyGPU("gpu-type", 3, 50, 600)
		g.Name = g.Name + string(rune('a'+i))
		s.Cluster.Devices = append(s.Cluster.Devices, hardware.Device{ID: i, GPU: g, Node: i})
	}
	err := s.Validate()
	if err == nil {
		t.Fatalf("%d GPU types passed validation, max is %d", MaxDeviceTypes+1, MaxDeviceTypes)
	}
	if got := err.Error(); !strings.Contains(got, "GPU types") || !strings.Contains(got, "factorial") {
		t.Errorf("error does not explain the bound: %v", err)
	}
	if _, err := Optimize(s, nil); err == nil {
		t.Error("Optimize accepted the over-mixed cluster")
	}
	// Exactly MaxDeviceTypes types (on enough layer groups) still validates.
	s.Cluster.Devices = s.Cluster.Devices[:MaxDeviceTypes]
	if err := s.Validate(); err != nil {
		t.Errorf("%d GPU types must validate: %v", MaxDeviceTypes, err)
	}
}
