// Package analysis is LLM-PQ's domain-aware static-analysis suite: a small
// go/ast + go/types framework (stdlib only, mirroring the shape of
// golang.org/x/tools/go/analysis without the dependency) plus the analyzers
// that guard the planner's invariants — bitwidths stay in the paper's
// {3,4,8,16} set, cost-model arithmetic never mixes units, plans stay
// deterministic, float comparisons go through epsilon helpers, and the
// pipeline runtime's concurrency follows the join discipline DESIGN.md
// documents. The cmd/llmpq-vet driver runs every analyzer over the module.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, pinned to a source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the cross-package sim/ctrl view (never nil inside Run: the
	// runner defaults it to manifest-only facts).
	Facts *Facts

	pkg   *Package
	diags *[]Diagnostic
}

// Inspector returns the package's shared inspector (parent links,
// per-function summaries, lazy CFG/escape info), built once and reused
// by every analyzer on the package.
func (p *Pass) Inspector() *Inspector { return p.pkg.Inspector() }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		BitwidthSet, UnitMix, SeededRand, FloatEq, CtxLock,
		SimWallClock, MapIter, RegistrySplit, GoroLeak, ErrDrop,
	}
}

// ByName resolves an analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// allowMetaName is the pseudo-analyzer findings about the directives
// themselves are filed under (always on; not part of Analyzers()).
const allowMetaName = "allow"

// allowRE is the one suppression syntax:
// //llmpq:allow(<analyzer>): <reason>, on the finding's line or the line
// above. It names exactly one analyzer, the reason is mandatory, and a
// directive that suppresses nothing is itself a finding — stale
// allowances rot the contract, so they fail the build. Anchored to the
// start of the comment so that prose mentioning the directive (doc
// comments, fixture want-strings) is not itself parsed as a directive.
var allowRE = regexp.MustCompile(`^//\s*llmpq:allow\(([a-z]+)\)(:?)\s*(.*)`)

// allowEntry is one parsed allow directive.
type allowEntry struct {
	analyzer string
	reason   string
	pos      token.Position
	lines    [2]int // the directive's own line and the line below
	used     bool
	enabled  bool // suppresses only analyzers that actually ran
}

func collectAllows(fset *token.FileSet, files []*ast.File, ran map[string]bool) []*allowEntry {
	var out []*allowEntry
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				// The reason only counts when introduced by the colon;
				// `//llmpq:allow(x) stray text` is still reason-less.
				reason := ""
				if m[2] == ":" {
					reason = strings.TrimSpace(m[3])
				}
				out = append(out, &allowEntry{
					analyzer: m[1],
					reason:   reason,
					pos:      pos,
					lines:    [2]int{pos.Line, pos.Line + 1},
					enabled:  ran[m[1]],
				})
			}
		}
	}
	return out
}

// applyAllows suppresses matching diagnostics, then reports directive
// problems: a missing reason, an unknown analyzer name, and — for
// analyzers that ran — a directive that suppressed nothing.
func applyAllows(allows []*allowEntry, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.analyzer == d.Analyzer && a.pos.Filename == d.File &&
				(a.lines[0] == d.Line || a.lines[1] == d.Line) && a.reason != "" {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, a := range allows {
		switch {
		case ByName(a.analyzer) == nil:
			kept = append(kept, Diagnostic{
				Analyzer: allowMetaName, File: a.pos.Filename, Line: a.pos.Line, Col: a.pos.Column,
				Message: fmt.Sprintf("llmpq:allow(%s) names no known analyzer", a.analyzer),
			})
		case a.reason == "":
			kept = append(kept, Diagnostic{
				Analyzer: allowMetaName, File: a.pos.Filename, Line: a.pos.Line, Col: a.pos.Column,
				Message: fmt.Sprintf("llmpq:allow(%s) needs a justification: `//llmpq:allow(%s): <reason>`", a.analyzer, a.analyzer),
			})
		case !a.used && a.enabled:
			kept = append(kept, Diagnostic{
				Analyzer: allowMetaName, File: a.pos.Filename, Line: a.pos.Line, Col: a.pos.Column,
				Message: fmt.Sprintf("unused llmpq:allow(%s) directive: the analyzer reports nothing here — remove it", a.analyzer),
			})
		}
	}
	return kept
}

// RunPackageFacts runs the analyzers over one loaded package under the
// given cross-package facts (nil = manifest-only) and returns the
// surviving diagnostics — allow directives applied, directive
// misuse reported — sorted by position.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	if facts == nil {
		facts = ManifestFacts(nil)
	}
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
			pkg:      pkg,
			diags:    &diags,
		}
		a.Run(pass)
	}
	kept := applyAllows(collectAllows(pkg.Fset, pkg.Files, ran), diags, ran)
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].File != kept[j].File {
			return kept[i].File < kept[j].File
		}
		if kept[i].Line != kept[j].Line {
			return kept[i].Line < kept[j].Line
		}
		if kept[i].Col != kept[j].Col {
			return kept[i].Col < kept[j].Col
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}
