package assigner

import (
	"math"
	"math/rand"
	"testing"
)

// exhaustiveOptimum scores every plan of a two-device spec on tb — both
// device orders, every cut and every bit of every group — and returns the
// best feasible objective, or +Inf when no plan fits.
func exhaustiveOptimum(t *testing.T, tb *Tables) float64 {
	t.Helper()
	s := tb.Spec
	L := s.layerGroups()
	nb := len(s.Bits)
	combos := 1
	for g := 0; g < L; g++ {
		combos *= nb
	}
	best := math.Inf(1)
	p := &Plan{GroupBits: make([]int, L), PrefillMB: tb.PrefillMB, DecodeMB: tb.DecodeMB}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		p.Order = order
		for cut := 1; cut < L; cut++ {
			p.Boundaries = []int{0, cut, L}
			for c := 0; c < combos; c++ {
				for g, k := 0, c; g < L; g, k = g+1, k/nb {
					p.GroupBits[g] = s.Bits[k%nb]
				}
				ev, err := Evaluate(tb, p)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Feasible && ev.Objective < best {
					best = ev.Objective
				}
			}
		}
	}
	return best
}

// TestDPMatchesExhaustive lists every two-stage plan of seeded tiny
// instances (2 orders × 7 cuts × 3⁸ bit assignments, θ from 0 to 1,
// random device memory) and holds the DP to the exact optimum: never
// better, since the optimum is exact, and within
// TestDPMatchesILPOnSmallInstance's 2 % bound.
func TestDPMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, theta := range []float64{0, 1e-3, 1e-2, 1e-1, 1} {
		for k := 0; k < 4; k++ {
			s := tinySpec(MethodDP, theta, 0.3+rng.Float64(), 0.3+rng.Float64())
			s.PrefillMicroBatches = []int{2}
			s.Parallelism = 1
			tb, err := BuildTables(s, ProfilerTimer{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			opt := exhaustiveOptimum(t, tb)
			res, err := Optimize(s, nil)
			if math.IsInf(opt, 1) {
				if err == nil {
					t.Errorf("θ %g memory %.2f/%.2f GB: DP found a plan where none fits", theta, tb.Capacity[0]/1e9, tb.Capacity[1]/1e9)
				}
				continue
			}
			if err != nil {
				t.Fatalf("θ %g memory %.2f/%.2f GB: %v, optimum %g", theta, tb.Capacity[0]/1e9, tb.Capacity[1]/1e9, err, opt)
			}
			dp := res.Eval.Objective
			if dp < opt {
				t.Errorf("θ %g: DP objective %.9g below the exhaustive optimum %.9g", theta, dp, opt)
			}
			if dp > opt*1.02 {
				t.Errorf("θ %g memory %.2f/%.2f GB: DP objective %.6g more than 2%% above the optimum %.6g",
					theta, tb.Capacity[0]/1e9, tb.Capacity[1]/1e9, dp, opt)
			}
			t.Logf("θ %g memory %.2f/%.2f GB: gap %.3g", theta, tb.Capacity[0]/1e9, tb.Capacity[1]/1e9, dp/opt-1)
		}
	}
}
