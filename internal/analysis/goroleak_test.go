package analysis

import "testing"

func TestGoroLeak(t *testing.T) {
	runFixture(t, GoroLeak, "goroleak", "repro/internal/dist/fixture")
}

func TestGoroLeakOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "goroleak", "repro/internal/assigner/fixture")
	if diags := RunPackageFacts(pkg, []*Analyzer{GoroLeak}, nil); len(diags) != 0 {
		t.Fatalf("goroleak only covers dist and runtime, got %v", diags)
	}
}
