package assigner_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/assigner"
)

// evalGolden is one plan of the Evaluate fixture with either Evaluate's
// error or its whole Evaluation. float64 values marshal to their shortest
// round-trip form, so a byte-equal fixture means bit-equal fields.
type evalGolden struct {
	Case       string               `json:"case"`
	Order      []int                `json:"order"`
	Boundaries []int                `json:"boundaries"`
	GroupBits  []int                `json:"group_bits"`
	PrefillMB  int                  `json:"prefill_mb"`
	DecodeMB   int                  `json:"decode_mb"`
	Error      string               `json:"error,omitempty"`
	Eval       *assigner.Evaluation `json:"eval,omitempty"`
}

func evalGoldenOf(name string, tb *assigner.Tables, p *assigner.Plan) evalGolden {
	g := evalGolden{Case: name, Order: p.Order, Boundaries: p.Boundaries, GroupBits: p.GroupBits,
		PrefillMB: p.PrefillMB, DecodeMB: p.DecodeMB}
	ev, err := assigner.Evaluate(tb, p)
	if err != nil {
		g.Error = err.Error()
	} else {
		g.Eval = &ev
	}
	return g
}

// evalGoldenCases prices seeded random plans at every prefill candidate of
// the tiny instances (θ from 0 to 1000, memory from infeasible to ample,
// grouping 1 and 2, two devices and one) and of the benchmark's clusters,
// whose optimal plan it also prices at each candidate, plus one plan whose
// ω lookup fails.
func evalGoldenCases(t *testing.T) []evalGolden {
	t.Helper()
	type named struct {
		name    string
		spec    *assigner.Spec
		plans   int
		optimal *assigner.Plan
	}
	var specs []named
	for i, c := range []struct{ theta, memA, memB float64 }{
		{0, 2, 2}, {0.1, 0.4, 1.2}, {1, 0.3, 0.3}, {1000, 1.5, 0.5},
	} {
		s := assigner.TinySpec(assigner.MethodDP, c.theta, c.memA, c.memB)
		if i%2 == 1 {
			s.Group, s.Omega = 2, assigner.GroupOmega(s.Omega, 2)
		}
		specs = append(specs, named{fmt.Sprintf("tiny%d", i), s, 3, nil})
	}
	specs = append(specs, named{"tiny-one-device", assigner.OneDeviceSpec(0.1, 0.4), 3, nil})
	for _, cid := range benchClusters {
		s := benchSpec(t, cid)
		res, err := assigner.Optimize(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, named{fmt.Sprintf("bench-cluster%d", cid), s, 2, res.Plan})
	}
	rng := rand.New(rand.NewSource(35))
	var out []evalGolden
	for _, c := range specs {
		for _, mb := range assigner.PrefillCandidates(c.spec) {
			tb, err := assigner.BuildTables(c.spec, assigner.ProfilerTimer{}, mb)
			if err != nil {
				t.Fatal(err)
			}
			if c.optimal != nil {
				p := *c.optimal
				p.PrefillMB = mb
				out = append(out, evalGoldenOf(fmt.Sprintf("%s/mb%d/optimal", c.name, mb), tb, &p))
			}
			for k := 0; k < c.plans; k++ {
				out = append(out, evalGoldenOf(fmt.Sprintf("%s/mb%d", c.name, mb), tb, assigner.RandomPlan(rng, tb)))
			}
		}
	}
	// ω lacks 3 and 16 bits: Evaluate reports the first group, in group
	// order, whose ω lookup fails.
	s := assigner.TinySpec(assigner.MethodDP, 0.1, 2, 2)
	s.Bits = []int{3, 4, 8, 16}
	s.Omega = assigner.SubsetOmega(s.Omega, []int{4, 8})
	tb, err := assigner.BuildTables(s, assigner.ProfilerTimer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := &assigner.Plan{Order: []int{0, 1}, Boundaries: []int{0, 4, 8}, GroupBits: []int{8, 4, 3, 8, 8, 16, 4, 8},
		PrefillMB: tb.PrefillMB, DecodeMB: tb.DecodeMB}
	return append(out, evalGoldenOf("omega-missing-bits", tb, bad))
}

// TestGoldenEvaluate pins every field of Evaluate's output, bit for bit,
// on feasible and memory-infeasible plans. Refresh with -update only on an
// intended change to the cost model.
func TestGoldenEvaluate(t *testing.T) {
	cases := evalGoldenCases(t)
	var feasible, infeasible, failed int
	var data bytes.Buffer
	data.WriteString("[\n")
	for i, c := range cases {
		switch {
		case c.Eval == nil:
			failed++
		case c.Eval.Feasible:
			feasible++
		default:
			infeasible++
		}
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		data.Write(line)
		if i < len(cases)-1 {
			data.WriteByte(',')
		}
		data.WriteByte('\n')
	}
	data.WriteString("]\n")
	if feasible == 0 || infeasible == 0 || failed == 0 {
		t.Errorf("fixture has %d feasible, %d infeasible and %d failed plans; want some of each", feasible, infeasible, failed)
	}
	path := filepath.Join("testdata", "golden", "evaluate.json")
	if *updateGolden {
		if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	if bytes.Equal(wantData, data.Bytes()) {
		return
	}
	var want []evalGolden
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d plans, the test prices %d", path, len(want), len(cases))
	}
	for i := range cases {
		got, _ := json.Marshal(cases[i])
		exp, _ := json.Marshal(want[i])
		if !bytes.Equal(got, exp) {
			t.Fatalf("plan %d (%s) diverged from %s:\n got %s\nwant %s\n(if the cost model change is intentional, refresh with: go test ./internal/assigner/ -run TestGoldenEvaluate -update)",
				i, cases[i].Case, path, got, exp)
		}
	}
	t.Fatalf("%s is not byte-identical to the priced plans", path)
}
