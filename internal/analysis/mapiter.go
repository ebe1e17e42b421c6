package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter catches nondeterministic map iteration feeding deterministic
// output. Go randomises map range order, so anything byte-diffed — plan
// artifacts, metric dumps, wire frames — must sort keys before emitting.
// Two shapes are flagged in sim-deterministic packages and internal/dist:
//
//  1. a sink call (Fprintf/Write/Encode/send/writeFrame/...) lexically
//     inside a map-range body, and
//  2. appending to a local slice inside a map-range and later passing
//     that slice to a sink with no sort of the slice on some path
//     between (the CFG answers the "some path" question).
//
// The collect-keys → sort.Strings(keys) → indexed-loop idiom the obs
// exporter uses is exactly what shape 2 is designed to accept.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration must not feed deterministic output unsorted; collect keys and sort first",
	Run:  runMapIter,
}

// mapIterSinks are the emit entry points whose argument order becomes
// observable bytes.
var mapIterSinks = map[string]bool{
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "writeFrame": true, "send": true,
}

func mapIterScope(p *Pass) bool {
	if p.Facts.Role(p.Pkg.Path()) == RoleSim {
		return true
	}
	// dist frames cross the wire in both sim-parity and live runs; frame
	// payload order must be stable either way.
	return strings.Contains(p.Pkg.Path(), "internal/dist")
}

// isSinkCall reports a call to one of the emit entry points, returning
// the sink's name.
func isSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if mapIterSinks[fun.Name] && info.Uses[fun] != nil {
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		if mapIterSinks[fun.Sel.Name] {
			return fun.Sel.Name, true
		}
	}
	return "", false
}

// isMapRange reports whether s ranges over a map.
func isMapRange(info *types.Info, s *ast.RangeStmt) bool {
	tv, ok := info.Types[s.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func runMapIter(p *Pass) {
	if !mapIterScope(p) {
		return
	}
	for _, fi := range p.Inspector().Funcs() {
		if fi.Decl.Body == nil {
			continue
		}
		checkMapIterFunc(p, fi)
	}
}

func checkMapIterFunc(p *Pass, fi *FuncInfo) {
	info := p.Info
	in := p.Inspector()
	// collected maps a local slice object to the map-range append that
	// filled it (shape 2 candidates).
	type fill struct {
		rng *ast.RangeStmt
		app *ast.AssignStmt
	}
	collected := map[types.Object]fill{}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(info, rng) {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if name, ok := isSinkCall(info, m); ok {
					p.Reportf(m.Pos(), "%s inside map iteration: range order is random, so emitted bytes are nondeterministic; collect keys, sort, then emit", name)
				}
			case *ast.AssignStmt:
				// xs = append(xs, ...) on a local slice.
				if len(m.Lhs) != 1 || len(m.Rhs) != 1 {
					return true
				}
				lhs, ok := ast.Unparen(m.Lhs[0]).(*ast.Ident)
				if !ok {
					return true
				}
				call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || fun.Name != "append" || !isBuiltinIdent(info, fun) {
					return true
				}
				obj := info.Uses[lhs]
				if obj == nil {
					obj = info.Defs[lhs]
				}
				if obj == nil || sliceLeaves(info, fi.Decl, obj) {
					return true
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					return true
				}
				if _, seen := collected[obj]; !seen {
					collected[obj] = fill{rng: rng, app: m}
				}
			}
			return true
		})
		return true
	})
	if len(collected) == 0 {
		return
	}

	// Shape 2: a sink later consumes a collected slice. Report unless every
	// path from the range to the sink passes a sort of that slice.
	cfg := fi.CFG()
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isSinkCall(info, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			obj := exprObj(info, arg)
			if obj == nil {
				continue
			}
			f, tracked := collected[obj]
			if !tracked {
				continue
			}
			sinkStmt := enclosingStmt(in, call)
			if sinkStmt == nil || cfg == nil {
				continue
			}
			if call.Pos() < f.rng.End() {
				continue // consumption inside the range itself is shape 1's job
			}
			avoid := func(s ast.Stmt) bool {
				switch s.(type) {
				case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
					*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
					// Compound statements appear in the CFG as headers;
					// their bodies occupy their own blocks, which the walk
					// visits separately — inspecting the whole subtree here
					// would credit a sort that only one branch performs.
					return false
				}
				return stmtSortsObj(info, s, obj)
			}
			if cfg.PathAvoiding(f.rng, sinkStmt, avoid) {
				p.Reportf(call.Pos(), "%s consumes %s, which was collected from map iteration without a sort on every path; sort it before emitting", name, obj.Name())
			}
		}
		return true
	})
}

// sliceLeaves reports whether the collected slice leaves the function in
// a way the shape-2 check cannot follow: returned, captured by a
// closure, or address-taken. Passing the slice to a call is exactly the
// consumption the check inspects, so call arguments must not disqualify
// it.
func sliceLeaves(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	if fd == nil || fd.Body == nil {
		return true
	}
	leaves := false
	refersTo := func(e ast.Expr) bool { return exprObj(info, e) == obj }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if leaves {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if refersTo(r) {
					leaves = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					leaves = true
				}
				return !leaves
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND && refersTo(n.X) {
				leaves = true
			}
		}
		return !leaves
	})
	return leaves
}

// exprObj resolves an expression to the local object it names, looking
// through slice expressions (xs[:n] still denotes xs's backing order).
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SliceExpr:
		return exprObj(info, e.X)
	}
	return nil
}

// enclosingStmt walks parent links up from a call to the statement the
// CFG indexed.
func enclosingStmt(in *Inspector, n ast.Node) ast.Stmt {
	for cur := ast.Node(n); cur != nil; cur = in.Parent(cur) {
		if s, ok := cur.(ast.Stmt); ok {
			return s
		}
	}
	return nil
}

// stmtSortsObj reports whether the statement sorts obj. Matching is
// deliberately loose — the statement contains a sort-package call (or a
// method named Sort) and references obj anywhere — so nested idioms like
// sort.Sort(sort.Reverse(sort.StringSlice(keys))) count. Loose matching
// can only suppress a finding, never invent one.
func stmtSortsObj(info *types.Info, s ast.Stmt, obj types.Object) bool {
	hasSort, refsObj := false, false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				if o, ok := info.Uses[fun.Sel].(*types.Func); ok && o.Pkg() != nil && o.Pkg().Path() == "sort" {
					hasSort = true
				}
				if fun.Sel.Name == "Sort" {
					hasSort = true
				}
			case *ast.Ident:
				if o, ok := info.Uses[fun].(*types.Func); ok && o.Pkg() != nil && o.Pkg().Path() == "sort" {
					hasSort = true
				}
			}
		case *ast.Ident:
			if info.Uses[n] == obj {
				refsObj = true
			}
		}
		return !(hasSort && refsObj)
	})
	return hasSort && refsObj
}
