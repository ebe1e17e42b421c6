package analysis

import "testing"

func TestErrDrop(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", "repro/internal/dist/fixture")
}

func TestErrDropOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "errdrop", "repro/internal/assigner/fixture")
	for _, d := range RunPackageFacts(pkg, []*Analyzer{ErrDrop}, nil) {
		// The fixture's llmpq:allow(errdrop) directive correctly turns up
		// as unused out of scope; only errdrop findings would be wrong.
		if d.Analyzer == ErrDrop.Name {
			t.Fatalf("errdrop only covers dist and obs, got %v", d)
		}
	}
}
