package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeModule lays out a throwaway Go module under t.TempDir and returns
// its root. Keys are slash-separated paths relative to the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// demoModule is the shared fixture module: a healthy import chain
// (app -> util + stdlib), a type error, an import cycle, a test-only
// package, skip-worthy directories, and the escape-analysis fixture.
func demoModule(t *testing.T) string {
	t.Helper()
	root := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"util/util.go": `package util

func Double(n int) int { return 2 * n }
`,
		"app/app.go": `package app

import (
	"strings"

	"demo/util"
)

func Shout(s string) string { return strings.ToUpper(s) }

func Quad(n int) int { return util.Double(util.Double(n)) }
`,
		"broken/broken.go": `package broken

func Bad() int { return "not an int" }
`,
		"cyca/a.go": `package cyca

import "demo/cycb"

var A = cycb.B + 1
`,
		"cycb/b.go": `package cycb

import "demo/cyca"

var B = cyca.A + 1
`,
		"onlytest/only_test.go": `package onlytest
`,
		"testdata/frag/frag.go": `package frag
`,
		".hidden/h.go": `package hidden
`,
		"_skip/s.go": `package skip
`,
	})
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestFindModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":       "module demo\n\ngo 1.22\n",
		"a/b/keep.txt": "x\n",
	})
	gotRoot, gotPath, err := FindModule(filepath.Join(root, "a", "b"))
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if gotRoot != root || gotPath != "demo" {
		t.Fatalf("FindModule = (%q, %q), want (%q, %q)", gotRoot, gotPath, root, "demo")
	}

	noLine := writeModule(t, map[string]string{"go.mod": "// no module directive\n"})
	if _, _, err := FindModule(noLine); err == nil || !strings.Contains(err.Error(), "no module line") {
		t.Fatalf("FindModule without module line: err = %v, want 'no module line'", err)
	}

	if _, _, err := FindModule(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no go.mod") {
		t.Fatalf("FindModule without go.mod: err = %v, want 'no go.mod'", err)
	}
}

func TestLoaderLoadDir(t *testing.T) {
	root := demoModule(t)
	l := NewLoader(root, "demo")

	pkg, err := l.LoadDir("app") // relative to the module root
	if err != nil {
		t.Fatalf("LoadDir(app): %v", err)
	}
	if pkg.Path != "demo/app" || pkg.Types.Name() != "app" {
		t.Fatalf("LoadDir(app) = path %q name %q", pkg.Path, pkg.Types.Name())
	}

	// Absolute path resolves to the same cached *Package.
	again, err := l.LoadDir(filepath.Join(root, "app"))
	if err != nil {
		t.Fatalf("LoadDir(abs app): %v", err)
	}
	if again != pkg {
		t.Fatal("LoadDir did not return the cached package on the second load")
	}

	// util was loaded transitively while checking app.
	util, err := l.LoadDir("util")
	if err != nil {
		t.Fatalf("LoadDir(util): %v", err)
	}
	if util.Path != "demo/util" {
		t.Fatalf("util path = %q", util.Path)
	}

	// Import routes module paths through LoadDir and stdlib paths through
	// the source importer.
	if tp, err := l.Import("demo/util"); err != nil || tp != util.Types {
		t.Fatalf("Import(demo/util) = %v, %v; want cached util types", tp, err)
	}
	if tp, err := l.Import("strings"); err != nil || tp.Path() != "strings" {
		t.Fatalf("Import(strings) = %v, %v", tp, err)
	}

	if _, err := l.LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "outside module") {
		t.Fatalf("LoadDir outside module: err = %v, want 'outside module'", err)
	}
	if _, err := l.LoadDir("broken"); err == nil || !strings.Contains(err.Error(), "type-check") {
		t.Fatalf("LoadDir(broken): err = %v, want type-check error", err)
	}
	if _, err := l.LoadDir("cyca"); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("LoadDir(cyca): err = %v, want import-cycle error", err)
	}
	if _, err := l.LoadDir("empty"); err == nil {
		t.Fatal("LoadDir(empty) succeeded, want error")
	}
	if _, err := l.LoadDir("onlytest"); err == nil {
		t.Fatal("LoadDir(onlytest) succeeded, want error for a test-only package")
	}
}

func TestPackageDirs(t *testing.T) {
	root := demoModule(t)
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatalf("PackageDirs: %v", err)
	}
	want := []string{
		filepath.Join(root, "app"),
		filepath.Join(root, "broken"),
		filepath.Join(root, "cyca"),
		filepath.Join(root, "cycb"),
		filepath.Join(root, "util"),
	}
	if !reflect.DeepEqual(dirs, want) {
		t.Fatalf("PackageDirs = %v, want %v", dirs, want)
	}

	if _, err := PackageDirs(filepath.Join(root, "does-not-exist")); err == nil {
		t.Fatal("PackageDirs on a missing root succeeded, want error")
	}
}

func TestDiagnosticString(t *testing.T) {
	if got := (Diagnostic{Analyzer: "mapiter", File: "x.go", Line: 3, Col: 7, Message: "m"}).String(); got != "x.go:3:7: [mapiter] m" {
		t.Fatalf("Diagnostic.String = %q", got)
	}
}
