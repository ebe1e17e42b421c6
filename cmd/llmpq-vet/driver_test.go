package main

// End-to-end driver tests run against a small throwaway module named
// "repro" in a temp dir, so the sim/ctrl manifest's path rules apply
// without re-analyzing (or polluting) the real tree.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeTestModule lays out a module with one sim package (carrying a
// deliberate wall-clock read) and one clean helper package, and chdirs
// into it for the duration of the test.
func writeTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro\n\ngo 1.22\n")
	write("internal/assigner/bad.go", `package assigner

import "time"

// Stamp reads the wall clock inside a sim-deterministic package — the
// seeded violation the acceptance test expects simwallclock to catch.
func Stamp() time.Time {
	return time.Now()
}
`)
	write("internal/workload/clean.go", `package workload

// Size is deliberately boring: no findings here.
func Size(n int) int {
	return n * 2
}
`)
	t.Chdir(root)
	return root
}

// TestSeededWallClockFails is the acceptance check: a deliberate
// time.Now() in internal/assigner must fail the run with a simwallclock
// finding.
func TestSeededWallClockFails(t *testing.T) {
	writeTestModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1 on the seeded violation, got %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "simwallclock" && strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a simwallclock time.Now finding, got %+v", diags)
	}
}

// TestSARIFOutput checks the -sarif sidecar: valid JSON, SARIF 2.1.0,
// one rule per analyzer plus the allow pseudo-rule, and the seeded
// finding as a result.
func TestSARIFOutput(t *testing.T) {
	root := writeTestModule(t)
	sarifPath := filepath.Join(root, "out.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sarif", sarifPath, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1, got %d\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Fatalf("sarif version %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want one run, got %d", len(log.Runs))
	}
	rules := log.Runs[0].Tool.Driver.Rules
	analyzers := analysis.Analyzers()
	if len(rules) != len(analyzers)+1 {
		t.Fatalf("want %d rules (every analyzer plus allow), got %d", len(analyzers)+1, len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		seen[r.ID] = true
	}
	for _, a := range analyzers {
		if !seen[a.Name] {
			t.Fatalf("rule %q missing from SARIF output (have %v)", a.Name, rules)
		}
	}
	if !seen["allow"] {
		t.Fatalf("allow pseudo-rule missing from SARIF output (have %v)", rules)
	}
	foundResult := false
	for _, r := range log.Runs[0].Results {
		if r.RuleID == "simwallclock" && len(r.Locations) == 1 {
			foundResult = true
		}
	}
	if !foundResult {
		t.Fatal("seeded simwallclock finding missing from SARIF results")
	}
}
