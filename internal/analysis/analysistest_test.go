package analysis

// analysistest-style fixture runner: each analyzer is exercised against a
// small package under testdata/src/<name>/, where `// want "substr"`
// comments state the expected diagnostics line by line (several quoted
// substrings = several diagnostics on that line).

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Fixtures share one fset + one stdlib source importer so sync/time/... are
// type-checked from source once per test binary, not once per fixture.
var fixtureImports = sync.OnceValue(func() (v struct {
	fset *token.FileSet
	imp  types.Importer
	mu   *sync.Mutex
}) {
	v.fset = token.NewFileSet()
	v.imp = importer.ForCompiler(v.fset, "source", nil)
	v.mu = &sync.Mutex{}
	return
})

// loadFixture type-checks testdata/src/<fixture> as package pkgPath.
func loadFixture(t *testing.T, fixture, pkgPath string) *Package {
	t.Helper()
	shared := fixtureImports()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(shared.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: shared.imp}
	tpkg, err := conf.Check(pkgPath, shared.fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", fixture, err)
	}
	return &Package{Path: pkgPath, Dir: dir, Fset: shared.fset, Files: files, Types: tpkg, Info: info}
}

var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants maps file:line → expected diagnostic substrings.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantStrRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("bad want string %s at %s: %v", q, key, err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}
	return wants
}

// runFixture asserts that the analyzer's diagnostics on the fixture match
// its want comments exactly.
func runFixture(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, pkgPath)
	diags := RunPackageFacts(pkg, []*Analyzer{a}, nil)
	wants := collectWants(t, pkg.Fset, pkg.Files)

	matched := map[string][]bool{}
	for k, w := range wants {
		matched[k] = make([]bool, len(w))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for i, w := range wants[key] {
			if !matched[key][i] && strings.Contains(d.Message, w) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, w := range wants {
		for i, ok := range matched[key] {
			if !ok {
				t.Errorf("missing diagnostic at %s: want %q", key, w[i])
			}
		}
	}
}
