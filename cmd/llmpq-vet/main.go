// Command llmpq-vet runs LLM-PQ's domain-aware static-analysis suite
// (internal/analysis) over the module: bitwidth-set membership, unit-suffix
// arithmetic, rand seeding discipline, float equality, pipeline concurrency
// rules, and the sim/ctrl contract (wall-clock use, map-iteration order,
// registry split, goroutine joinability, dropped I/O errors). It
// type-checks every package from source with no dependencies beyond the
// standard library.
//
//	llmpq-vet ./...                  # whole module (CI gate)
//	llmpq-vet -json ./internal/...   # machine-readable findings
//	llmpq-vet -sarif out.sarif ./... # SARIF 2.1.0 for code-scanning UIs
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. Every analyzer
// always runs. A finding is suppressed by
// `//llmpq:allow(<analyzer>): <reason>` on its line or the line above;
// the reason is required, and a directive that no longer suppresses
// anything is itself a finding.
//
// Packages are loaded, type-checked and analyzed one after another;
// loading and type-checking dominate a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llmpq-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := analysis.Analyzers()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
		return 2
	}
	modRoot, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
		return 2
	}
	dirs, err := resolvePatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
		return 2
	}

	// The sim/ctrl fact propagation must see the whole module's import
	// graph even when analyzing a subset.
	imports, err := scanImports(modRoot, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
		return 2
	}
	facts := analysis.ComputeFacts(nil, imports)

	loader := analysis.NewLoader(modRoot, modPath)
	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
			return 2
		}
		diags = append(diags, analysis.RunPackageFacts(pkg, analyzers, facts)...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, analyzers, diags); err != nil {
			fmt.Fprintf(stderr, "llmpq-vet: sarif: %v\n", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "llmpq-vet: encode: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "llmpq-vet: %d finding(s) across %d package(s)\n", len(diags), len(dirs))
		}
		return 1
	}
	return 0
}

// scanImports maps every module package's import path to its sorted
// module-local imports, read from its non-test .go files with
// parser.ImportsOnly, so it costs a fraction of a type-check.
func scanImports(modRoot, modPath string) (map[string][]string, error) {
	dirs, err := analysis.PackageDirs(modRoot)
	if err != nil {
		return nil, err
	}
	imports := map[string][]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		depSet := map[string]bool{}
		hasFiles := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			hasFiles = true
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				dep := strings.Trim(imp.Path.Value, `"`)
				if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
					depSet[dep] = true
				}
			}
		}
		if !hasFiles {
			continue
		}
		deps := make([]string, 0, len(depSet))
		for d := range depSet {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		imports[dirImportPath(modRoot, modPath, dir)] = deps
	}
	return imports, nil
}

// dirImportPath maps an absolute package directory to its import path.
func dirImportPath(modRoot, modPath, dir string) string {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// resolvePatterns expands "./..."-style patterns and plain directories into
// the list of package directories to analyze.
func resolvePatterns(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "" {
				rest = "."
			}
			root := rest
			if !filepath.IsAbs(root) {
				root = filepath.Join(cwd, root)
			}
			sub, err := analysis.PackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	return dirs, nil
}
