package analysis

import (
	"strings"
	"testing"
)

func TestSimWallClock(t *testing.T) {
	// Loaded as a repro/internal/runtime subpackage, the fixture is sim.
	runFixture(t, SimWallClock, "simwallclock", "repro/internal/runtime/simwcfix")
}

func TestSimWallClockRetryExemption(t *testing.T) {
	// A core/retry path inside a sim subtree: WallSleep is blessed, its
	// siblings are not.
	runFixture(t, SimWallClock, "simwallclock_retry", "repro/internal/runtime/core/retry")
}

func TestSimWallClockCtrlPackagesUnconstrained(t *testing.T) {
	// The same wall-clock-heavy code loaded under a ctrl path draws no
	// findings: reading the clock is the control plane's job.
	pkg := loadFixture(t, "simwallclock_retry", "repro/internal/dist/retry")
	if diags := RunPackageFacts(pkg, []*Analyzer{SimWallClock}, nil); len(diags) != 0 {
		t.Fatalf("ctrl-role package should be unconstrained, got %v", diags)
	}
}

func TestSimWallClockReportsCtrlImports(t *testing.T) {
	// Computed facts say this sim package imports a ctrl package ("sort"
	// stands in — fixtures cannot import module packages).
	m, err := ParseManifest("package sim repro/internal/runtime\npackage ctrl sort\n")
	if err != nil {
		t.Fatal(err)
	}
	const pkgPath = "repro/internal/runtime/importfix"
	facts := ComputeFacts(m, map[string][]string{pkgPath: {"sort"}})
	pkg := loadFixture(t, "simwallclock_import", pkgPath)
	diags := RunPackageFacts(pkg, []*Analyzer{SimWallClock}, facts)
	if len(diags) != 1 {
		t.Fatalf("want exactly the import violation, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, `imports ctrl-only package sort`) {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

func TestSimWallClockPropagatedRole(t *testing.T) {
	// A package nobody lists becomes sim when a sim package imports it,
	// and the diagnostic explains the chain.
	m, err := ParseManifest("package sim repro/internal/online\n")
	if err != nil {
		t.Fatal(err)
	}
	const helper = "repro/helper"
	facts := ComputeFacts(m, map[string][]string{
		"repro/internal/online": {helper},
		helper:                  nil,
	})
	if got := facts.Role(helper); got != RoleSim {
		t.Fatalf("helper role = %v, want sim", got)
	}
	pkg := loadFixture(t, "simwallclock_retry", helper)
	diags := RunPackageFacts(pkg, []*Analyzer{SimWallClock}, facts)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "imported by sim package repro/internal/online") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a diagnostic explaining the propagated role, got %v", diags)
	}
}
