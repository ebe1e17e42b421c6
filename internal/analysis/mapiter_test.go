package analysis

import "testing"

func TestMapIter(t *testing.T) {
	runFixture(t, MapIter, "mapiter", "repro/internal/runtime/mapiterfix")
}

func TestMapIterOutOfScope(t *testing.T) {
	// Unconstrained packages (neither sim nor dist) draw no findings.
	pkg := loadFixture(t, "mapiter", "example.com/elsewhere")
	if diags := RunPackageFacts(pkg, []*Analyzer{MapIter}, nil); len(diags) != 0 {
		t.Fatalf("out-of-scope package should be quiet, got %v", diags)
	}
}

func TestMapIterDistInScope(t *testing.T) {
	// dist is ctrl, but its wire frames still need stable ordering.
	pkg := loadFixture(t, "mapiter", "repro/internal/dist/framefix")
	if diags := RunPackageFacts(pkg, []*Analyzer{MapIter}, nil); len(diags) == 0 {
		t.Fatal("dist packages are in mapiter scope; want findings")
	}
}
