package ilp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lp"
)

// binary returns an n-length Integer mask (all true) and Upper (all 1),
// convenience for pure 0/1 programs.
func binary(n int) ([]bool, []float64) {
	ints := make([]bool, n)
	ups := make([]float64, n)
	for i := range ints {
		ints[i] = true
		ups[i] = 1
	}
	return ints, ups
}

func TestKnapsack(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c≤2 (binary) → min -(…); best {a,b} = 16.
	ints, ups := binary(3)
	p := &Problem{
		C:       []float64{-10, -6, -4},
		Aub:     [][]float64{{1, 1, 1}},
		Bub:     []float64{2},
		Integer: ints,
		Upper:   ups,
	}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != lp.Optimal || math.Abs(r.Obj+16) > 1e-6 {
		t.Fatalf("got %v obj=%.4f x=%v, want -16", r.Status, r.Obj, r.X)
	}
	if r.X[0] != 1 || r.X[1] != 1 || r.X[2] != 0 {
		t.Errorf("wrong selection: %v", r.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// LP relax of max x s.t. 2x ≤ 3 is 1.5; integer optimum 1.
	p := &Problem{
		C:       []float64{-1},
		Aub:     [][]float64{{2}},
		Bub:     []float64{3},
		Integer: []bool{true},
		Upper:   []float64{math.Inf(1)},
	}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Obj != -1 || r.X[0] != 1 {
		t.Fatalf("got obj=%.4f x=%v, want x=1", r.Obj, r.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 2y, x integer ≤ 2.5 bound via constraint x ≤ 2.5, y ≤ 1.7
	// continuous. Optimum: x=2, y=1.7 → -5.4.
	p := &Problem{
		C:       []float64{-1, -2},
		Aub:     [][]float64{{1, 0}, {0, 1}},
		Bub:     []float64{2.5, 1.7},
		Integer: []bool{true, false},
		Upper:   []float64{math.Inf(1), math.Inf(1)},
	}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Obj+5.4) > 1e-6 || r.X[0] != 2 {
		t.Fatalf("got obj=%.4f x=%v, want x=2,y=1.7", r.Obj, r.X)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	ints, ups := binary(2)
	// a+b = 3 with binaries is infeasible.
	p := &Problem{
		C:       []float64{1, 1},
		Aeq:     [][]float64{{1, 1}},
		Beq:     []float64{3},
		Integer: ints,
		Upper:   ups,
	}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != lp.Infeasible {
		t.Fatalf("got %v, want infeasible", r.Status)
	}
}

func TestEqualityPartitionLike(t *testing.T) {
	// Miniature of the paper's assignment structure: 3 layers × 2 bits,
	// exactly one bit per layer, memory cap picks the cheap bit for two
	// layers. Variables z[l][b], b∈{heavy(q=4 mem, gain0), light(1 mem,
	// penalty w_l)}; minimize Σ w_l·light_l s.t. Σ mem ≤ 6.
	// Optimum keeps the most sensitive layer heavy.
	w := []float64{5, 1, 2} // sensitivity penalty if quantized light
	nv := 6                 // z[l][0]=heavy, z[l][1]=light
	c := []float64{0, w[0], 0, w[1], 0, w[2]}
	var aeq [][]float64
	var beq []float64
	for l := 0; l < 3; l++ {
		row := make([]float64, nv)
		row[2*l] = 1
		row[2*l+1] = 1
		aeq = append(aeq, row)
		beq = append(beq, 1)
	}
	mem := make([]float64, nv)
	for l := 0; l < 3; l++ {
		mem[2*l] = 4
		mem[2*l+1] = 1
	}
	ints, ups := binary(nv)
	p := &Problem{C: c, Aub: [][]float64{mem}, Bub: []float64{6}, Aeq: aeq, Beq: beq, Integer: ints, Upper: ups}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only one layer can stay heavy (4+1+1=6); it should be layer 0.
	if r.X[0] != 1 || r.X[3] != 1 || r.X[5] != 1 {
		t.Fatalf("wrong assignment x=%v obj=%.2f", r.X, r.Obj)
	}
	if math.Abs(r.Obj-3) > 1e-6 {
		t.Fatalf("obj=%.4f want 3", r.Obj)
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 8
		c := make([]float64, n)
		wts := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = -(rng.Float64()*9 + 1) // maximize value
			wts[j] = rng.Float64()*4 + 1
		}
		cap := 10.0
		ints, ups := binary(n)
		p := &Problem{C: c, Aub: [][]float64{wts}, Bub: []float64{cap}, Integer: ints, Upper: ups}
		r, err := Solve(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force 2^8.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			var wsum, v float64
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					wsum += wts[j]
					v += c[j]
				}
			}
			if wsum <= cap && v < best {
				best = v
			}
		}
		if math.Abs(r.Obj-best) > 1e-6 {
			t.Errorf("trial %d: B&B obj %.6f != brute force %.6f", trial, r.Obj, best)
		}
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A 24-var knapsack with an absurdly short limit: either it finishes
	// (fine) or returns a feasible incumbent/ErrNoIncumbent.
	rng := rand.New(rand.NewSource(3))
	n := 24
	c := make([]float64, n)
	wts := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = -rng.Float64()
		wts[j] = rng.Float64() + 0.1
	}
	ints, ups := binary(n)
	p := &Problem{C: c, Aub: [][]float64{wts}, Bub: []float64{3}, Integer: ints, Upper: ups}
	r, err := Solve(p, 2*time.Millisecond)
	if err != nil && err != ErrNoIncumbent {
		t.Fatal(err)
	}
	if err == nil && r.Status == lp.Optimal {
		// Incumbent must be feasible.
		var w float64
		for j := 0; j < n; j++ {
			w += wts[j] * r.X[j]
		}
		if w > 3+1e-6 {
			t.Errorf("incumbent violates knapsack: %.4f", w)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(&Problem{}, 0); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Solve(&Problem{C: []float64{1}, Integer: []bool{true, false}, Upper: []float64{1}}, 0); err == nil {
		t.Error("expected Integer length error")
	}
}

func TestNodesCounted(t *testing.T) {
	ints, ups := binary(4)
	p := &Problem{
		C:       []float64{-3, -5, -4, -1},
		Aub:     [][]float64{{2, 3, 2, 1}},
		Bub:     []float64{5},
		Integer: ints,
		Upper:   ups,
	}
	r, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes < 1 {
		t.Errorf("expected at least one node, got %d", r.Nodes)
	}
}

// TestSolveConcurrent runs the knapsack MILP from many goroutines sharing
// one Problem; under -race it proves the call-confined branch-and-bound
// contract that concurrent order-workers in the assigner rely on.
func TestSolveConcurrent(t *testing.T) {
	ints, ups := binary(3)
	p := &Problem{
		C:       []float64{-10, -6, -4},
		Aub:     [][]float64{{1, 1, 1}},
		Bub:     []float64{2},
		Integer: ints,
		Upper:   ups,
	}
	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				results[w], errs[w] = Solve(p, 0)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		r := results[w]
		if r.Status != lp.Optimal || math.Abs(r.Obj+16) > 1e-9 {
			t.Fatalf("worker %d: got %v obj=%.9f, want optimal -16", w, r.Status, r.Obj)
		}
		if r.X[0] != 1 || r.X[1] != 1 || r.X[2] != 0 {
			t.Errorf("worker %d: selection %v, want [1 1 0]", w, r.X)
		}
		if r.Nodes != results[0].Nodes || r.Pivots != results[0].Pivots {
			t.Errorf("worker %d: nodes/pivots %d/%d differ from worker 0's %d/%d", w, r.Nodes, r.Pivots, results[0].Nodes, results[0].Pivots)
		}
	}
}
