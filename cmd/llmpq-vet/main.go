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
//	llmpq-vet -cache-dir .vetcache ./...  # reuse results for unchanged packages
//	llmpq-vet -unitmix=false ./...   # disable one analyzer
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. A finding is
// suppressed by `//llmpq:allow(<analyzer>): <reason>` on its line or the
// line above; the reason is required, and a directive that no longer
// suppresses anything is itself a finding.
//
// Analysis is parallel across packages (-parallel, default GOMAXPROCS);
// loading and type-checking stay serial because the loader shares state.
// With -cache-dir, per-package results are keyed by a content hash of the
// package's module-local import closure, the suite's own sources, the
// manifest, and the enabled analyzer set, so repeat runs over an unchanged
// tree skip analysis entirely.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

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
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "number of packages analyzed concurrently")
	cacheDir := fs.String("cache-dir", "", "directory for the per-package result cache (empty = no caching)")
	enabled := map[string]*bool{}
	for _, a := range analysis.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var active []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	if *parallel < 1 {
		*parallel = 1
	}

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

	// The whole-module import scan feeds two things: the sim/ctrl fact
	// propagation (facts must see the full graph even when analyzing a
	// subset) and the cache keys (a package's result depends on its
	// module-local import closure).
	graph, err := scanImports(modRoot, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
		return 2
	}
	facts := analysis.ComputeFacts(nil, graph.imports)

	var cache *resultCache
	if *cacheDir != "" {
		cache, err = newResultCache(*cacheDir, graph, activeNames(active))
		if err != nil {
			fmt.Fprintf(stderr, "llmpq-vet: cache: %v\n", err)
			return 2
		}
	}

	// Phase 1: satisfy what we can from the cache; collect the rest.
	perDir := make([][]analysis.Diagnostic, len(dirs))
	var misses []int
	for i, dir := range dirs {
		if cache != nil {
			if diags, ok := cache.get(dirImportPath(modRoot, modPath, dir)); ok {
				perDir[i] = diags
				continue
			}
		}
		misses = append(misses, i)
	}

	// Phase 2: load misses serially (the loader shares one fileset and
	// package map), then analyze them in parallel — the type-checked Info
	// is read-only from here on.
	loader := analysis.NewLoader(modRoot, modPath)
	pkgs := make([]*analysis.Package, len(misses))
	for j, i := range misses {
		pkg, err := loader.LoadDir(dirs[i])
		if err != nil {
			fmt.Fprintf(stderr, "llmpq-vet: %v\n", err)
			return 2
		}
		pkgs[j] = pkg
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, *parallel)
	for j := range pkgs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perDir[misses[j]] = analysis.RunPackageFacts(pkgs[j], active, facts)
		}(j)
	}
	wg.Wait()
	if cache != nil {
		for j, i := range misses {
			if err := cache.put(pkgs[j].Path, perDir[i]); err != nil {
				fmt.Fprintf(stderr, "llmpq-vet: cache: %v\n", err)
				return 2
			}
		}
		fmt.Fprintf(stderr, "llmpq-vet: %d/%d packages from cache\n", len(dirs)-len(misses), len(dirs))
	}

	var diags []analysis.Diagnostic
	for _, d := range perDir {
		diags = append(diags, d...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, active, diags); err != nil {
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

func activeNames(active []*analysis.Analyzer) []string {
	names := make([]string, len(active))
	for i, a := range active {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
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
