package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestModuleIsVetClean is the CI gate: the whole module must stay free of
// findings (suppressions with a justification comment count as clean).
func TestModuleIsVetClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// The test runs with cwd = cmd/llmpq-vet; ../../... covers the module.
	if code := run([]string{"../../..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("llmpq-vet exit %d on the module:\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "../../internal/simclock"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostics array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 0 {
		t.Fatalf("simclock should be clean, got %+v", diags)
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../../no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("want exit 2 for a bad directory, got %d", code)
	}
	if !strings.Contains(stderr.String(), "llmpq-vet:") {
		t.Fatalf("stderr should carry the error, got %q", stderr.String())
	}
}
