package assigner_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/assigner"
	"repro/internal/core/floats"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite golden plan fixtures")

// goldenEps bounds objective drift across platforms: the solvers are pure
// deterministic float64 arithmetic, so anything beyond rounding noise is a
// behavior change.
const goldenEps = 1e-6

// goldenPlan is the serialized fixture: the plan decisions plus the exact
// objective decomposition.
type goldenPlan struct {
	Cluster    string  `json:"cluster"`
	Model      string  `json:"model"`
	Order      []int   `json:"order"`
	Boundaries []int   `json:"boundaries"`
	GroupBits  []int   `json:"group_bits"`
	PrefillMB  int     `json:"prefill_mb"`
	DecodeMB   int     `json:"decode_mb"`
	Objective  float64 `json:"objective"`
	LatencySec float64 `json:"latency_sec"`
	OmegaSum   float64 `json:"omega_sum"`
}

type goldenCase struct {
	name      string
	clusterID int
	model     string
	group     int
}

// Three Table-3 clusters × two models each; Workload and ω seed are fixed
// so any diff is a solver change, not an input change.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"cluster3-opt-30b", 3, "opt-30b", 4},
		{"cluster3-opt-13b", 3, "opt-13b", 4},
		{"cluster9-opt-30b", 9, "opt-30b", 4},
		{"cluster9-opt-13b", 9, "opt-13b", 4},
		{"cluster10-opt-66b", 10, "opt-66b", 8},
		{"cluster10-opt-30b", 10, "opt-30b", 8},
	}
}

func goldenSpec(t testing.TB, gc goldenCase) *assigner.Spec {
	t.Helper()
	cl, err := hardware.ClusterByID(gc.clusterID)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := model.ByName(gc.model)
	if err != nil {
		t.Fatal(err)
	}
	bits := []int{3, 4, 8, 16}
	omega := assigner.GroupOmega(indicator.Synthetic(cfg, bits, 42), gc.group)
	return &assigner.Spec{
		Cfg:     cfg,
		Cluster: cl,
		Work:    assigner.Workload{GlobalBatch: 32, Prompt: 512, Generate: 80},
		Bits:    bits,
		Omega:   omega,
		Theta:   0.1,
		Group:   gc.group,
		Method:  assigner.MethodDP,
	}
}

func solveGolden(t *testing.T, gc goldenCase) goldenPlan {
	t.Helper()
	res, err := assigner.Optimize(goldenSpec(t, gc), nil)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return goldenOf(gc.clusterID, gc.model, res.Plan)
}

func goldenOf(clusterID int, model string, p *assigner.Plan) goldenPlan {
	return goldenPlan{
		Cluster:    fmt.Sprintf("cluster-%d", clusterID),
		Model:      model,
		Order:      p.Order,
		Boundaries: p.Boundaries,
		GroupBits:  p.GroupBits,
		PrefillMB:  p.PrefillMB,
		DecodeMB:   p.DecodeMB,
		Objective:  p.Objective,
		LatencySec: p.LatencySec,
		OmegaSum:   p.OmegaSum,
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// checkGolden diffs a plan against its checked-in fixture, or rewrites
// the fixture under -update. exact also requires the fixture's bytes to
// match: float64 values marshal to their shortest round-trip form, so
// equal JSON means bit-equal objectives.
func checkGolden(t *testing.T, name string, got goldenPlan, exact bool) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	var want goldenPlan
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	diff := diffGolden(want, got)
	if diff == "" && exact && !bytes.Equal(wantData, data) {
		diff = fmt.Sprintf("  not byte-identical; got:\n%s", data)
	}
	if diff != "" {
		t.Errorf("plan for %s diverged from %s:\n%s\n(if the solver change is intentional, refresh with: go test ./internal/assigner/ -run TestGolden -update)",
			name, path, diff)
	}
}

// TestGoldenPlans re-solves each fixture's instance and diffs the plan
// against the checked-in result. Run with -update to rewrite fixtures
// after an intentional solver change.
func TestGoldenPlans(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			checkGolden(t, gc.name, solveGolden(t, gc), false)
		})
	}
}

// diffGolden reports mismatches field by field so a regression reads as a
// story, not a JSON blob.
func diffGolden(want, got goldenPlan) string {
	var b strings.Builder
	intSlice := func(field string, w, g []int) {
		if len(w) != len(g) {
			fmt.Fprintf(&b, "  %s: length %d -> %d (%v -> %v)\n", field, len(w), len(g), w, g)
			return
		}
		for i := range w {
			if w[i] != g[i] {
				fmt.Fprintf(&b, "  %s: %v -> %v (first diff at index %d: %d -> %d)\n", field, w, g, i, w[i], g[i])
				return
			}
		}
	}
	intSlice("order", want.Order, got.Order)
	intSlice("boundaries", want.Boundaries, got.Boundaries)
	intSlice("group_bits", want.GroupBits, got.GroupBits)
	if want.PrefillMB != got.PrefillMB {
		fmt.Fprintf(&b, "  prefill_mb: %d -> %d\n", want.PrefillMB, got.PrefillMB)
	}
	if want.DecodeMB != got.DecodeMB {
		fmt.Fprintf(&b, "  decode_mb: %d -> %d\n", want.DecodeMB, got.DecodeMB)
	}
	flt := func(field string, w, g float64) {
		if !floats.EqTol(w, g, goldenEps) {
			fmt.Fprintf(&b, "  %s: %.9f -> %.9f (|Δ|=%.3g > %.0e)\n", field, w, g, g-w, goldenEps)
		}
	}
	flt("objective", want.Objective, got.Objective)
	flt("latency_sec", want.LatencySec, got.LatencySec)
	flt("omega_sum", want.OmegaSum, got.OmegaSum)
	return b.String()
}

// TestGoldenDiffIsLoud guards the guard: a perturbed plan must produce a
// non-empty, field-naming diff.
func TestGoldenDiffIsLoud(t *testing.T) {
	base := goldenPlan{
		Order: []int{0, 1}, Boundaries: []int{0, 4, 8}, GroupBits: []int{8, 8, 16, 16, 8, 8, 4, 4},
		PrefillMB: 8, DecodeMB: 16, Objective: 12.5, LatencySec: 11.5, OmegaSum: 10,
	}
	perturbed := base
	perturbed.GroupBits = append([]int(nil), base.GroupBits...)
	perturbed.GroupBits[2] = 4
	perturbed.Objective = base.Objective + 1e-3
	diff := diffGolden(base, perturbed)
	if diff == "" {
		t.Fatal("perturbed plan produced an empty diff")
	}
	for _, want := range []string{"group_bits", "objective"} {
		if !strings.Contains(diff, want) {
			t.Errorf("diff does not name %q:\n%s", want, diff)
		}
	}
	if diffGolden(base, base) != "" {
		t.Errorf("identical plans produced a diff: %s", diffGolden(base, base))
	}
}
