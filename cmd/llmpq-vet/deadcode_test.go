package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptDeclarations are top-level names that no non-test file references
// but that stay on purpose: API kept for callers outside the repository,
// and interface methods only the standard library calls.
var keptDeclarations = map[string]bool{
	"Instrument":  true,
	"SetKVBits":   true,
	"AlmostEqual": true,
	"Less":        true,
	"Swap":        true,
	"Unwrap":      true,
}

// modelCatalogue is the package whose vars are the model catalogue: each
// entry registers itself for lookup by name, so a program need not name it.
const modelCatalogue = "internal/model"

// TestNoDeadDeclarations fails on a top-level func, method, type, const
// or var that no non-test file of the repository references. Every
// non-test .go file counts (cmd, examples and the benchmark module
// included, testdata excluded), references match by identifier name, and
// a declaration's own name does not count as a reference.
func TestNoDeadDeclarations(t *testing.T) {
	// The test runs with cwd = cmd/llmpq-vet; ../.. is the repository.
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type decl struct {
		name, pos string
		catalogue bool // a var of modelCatalogue
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		inCatalogue := filepath.ToSlash(rel) == modelCatalogue
		add := func(id *ast.Ident, isVar bool) {
			declIdents[id] = true
			if id.Name == "_" || id.Name == "main" || id.Name == "init" {
				return
			}
			decls = append(decls, decl{id.Name, fset.Position(id.Pos()).String(), isVar && inCatalogue})
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				add(dl.Name, false)
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(sp.Name, false)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id, dl.Tok == token.VAR)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if used[d.name] || keptDeclarations[d.name] || d.catalogue {
			continue
		}
		dead = append(dead, d.pos+": "+d.name)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d top-level declarations no non-test file references; delete them:\n%s", len(dead), strings.Join(dead, "\n"))
	}
}
