package analysis

// The shared per-package inspector: one walk over the package builds the
// products every analyzer needs — parent links, per-function summaries
// (static callees, goroutine-join signals, registry-name forwarding) and
// a lazy CFG per function. Analyzers ask the Pass for the Inspector
// instead of re-walking the files, which is what lets the driver run
// many analyzers over one package cheaply.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// RegForward records that a function forwards one of its string
// parameters as the family-name argument of a Registry.Counter / Gauge /
// Histogram call — `func (c *x) ctrlInc(name string)` style helpers. The
// registrysplit analyzer then checks literal names at the call sites.
type RegForward struct {
	ParamIndex int  // index into the function's (non-receiver) parameters
	Role       Role // role of the registry the name lands on
}

// FuncInfo is the per-function summary.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Obj  *types.Func

	// Calls lists the statically resolved callees (package-local and
	// imported), in source order.
	Calls []*types.Func
	// JoinSignal reports the body communicates: channel send/receive/
	// close/range (which covers <-ctx.Done() selects) or a WaitGroup
	// method call — the signals that make a goroutine joinable.
	JoinSignal bool
	// RegForwards lists string parameters forwarded as metric names.
	RegForwards []RegForward

	cfgOnce sync.Once
	cfg     *CFG
}

// CFG builds (once) and returns the function's control-flow graph, or
// nil for a body-less declaration.
func (fi *FuncInfo) CFG() *CFG {
	fi.cfgOnce.Do(func() {
		if fi.Decl != nil && fi.Decl.Body != nil {
			fi.cfg = BuildCFG(fi.Decl.Body)
		}
	})
	return fi.cfg
}

// Inspector is the shared package index.
type Inspector struct {
	pkg     *Package
	parents map[ast.Node]ast.Node
	funcs   []*FuncInfo
	byObj   map[*types.Func]*FuncInfo
}

// Inspector returns the package's shared inspector, building it on first
// use. Safe for concurrent analyzer passes.
func (p *Package) Inspector() *Inspector {
	p.inspOnce.Do(func() {
		p.insp = buildInspector(p)
	})
	return p.insp
}

func buildInspector(pkg *Package) *Inspector {
	in := &Inspector{
		pkg:     pkg,
		parents: map[ast.Node]ast.Node{},
		byObj:   map[*types.Func]*FuncInfo{},
	}
	for _, f := range pkg.Files {
		// Parent links for the whole file.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				in.parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fi := &FuncInfo{Decl: fd}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fi.Obj = obj
				in.byObj[obj] = fi
			}
			if fd.Body != nil {
				summarize(pkg.Info, fd, fi)
			}
			in.funcs = append(in.funcs, fi)
		}
	}
	return in
}

// Funcs returns the package's function summaries in source order.
func (in *Inspector) Funcs() []*FuncInfo { return in.funcs }

// FuncByObj resolves a summary from its types object, or nil.
func (in *Inspector) FuncByObj(obj *types.Func) *FuncInfo { return in.byObj[obj] }

// Parent returns the syntactic parent of a node, or nil.
func (in *Inspector) Parent(n ast.Node) ast.Node { return in.parents[n] }

// EnclosingFunc returns the FuncDecl lexically containing pos, or nil.
func (in *Inspector) EnclosingFunc(pos token.Pos) *FuncInfo {
	for _, fi := range in.funcs {
		if fi.Decl.Pos() <= pos && pos <= fi.Decl.End() {
			return fi
		}
	}
	return nil
}

// summarize fills one function's summary in a single body walk.
func summarize(info *types.Info, fd *ast.FuncDecl, fi *FuncInfo) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			fi.JoinSignal = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fi.JoinSignal = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					fi.JoinSignal = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" && isBuiltinIdent(info, fun) {
					fi.JoinSignal = true // builtin close: channel traffic
				}
				if callee, ok := info.Uses[fun].(*types.Func); ok {
					fi.Calls = append(fi.Calls, callee)
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[fun]; ok {
					recv := sel.Recv()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					if lockKind(recv) == "sync.WaitGroup" {
						fi.JoinSignal = true
					}
				}
				if callee, ok := info.Uses[fun.Sel].(*types.Func); ok {
					fi.Calls = append(fi.Calls, callee)
				}
				recordRegForward(info, fd, n, fun, fi)
			}
		}
		return true
	})
}

// isBuiltinIdent reports whether the identifier denotes a language
// builtin (append, close, ...). go/types records builtins in Uses as
// *types.Builtin — they are not absent, a mistake easy to make.
func isBuiltinIdent(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// isObsRegistry reports whether t is (a pointer to) internal/obs.Registry.
func isObsRegistry(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// registryMethods are the family-registration entry points.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// RegistryExprRole guesses which registry an expression denotes from its
// terminal identifier, the naming convention the two-registry split uses:
// anything spelled with "ctrl" is the control registry; a bare Obs / sim
// name is the deterministic sim registry; parameters and neutral names
// (r, reg) stay unknown and are skipped rather than guessed.
func RegistryExprRole(e ast.Expr) Role {
	var name string
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		return RoleUnknown
	default:
		return RoleUnknown
	}
	lower := strings.ToLower(name)
	switch {
	case strings.Contains(lower, "ctrl"):
		return RoleCtrl
	case name == "Obs" || strings.Contains(lower, "sim"):
		return RoleSim
	default:
		return RoleUnknown
	}
}

// recordRegForward notes `fn(..., name string, ...)` bodies that pass a
// string parameter straight through as a registry family name.
func recordRegForward(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, fun *ast.SelectorExpr, fi *FuncInfo) {
	if !registryMethods[fun.Sel.Name] || len(call.Args) == 0 {
		return
	}
	recvTV, ok := info.Types[fun.X]
	if !ok || !isObsRegistry(recvTV.Type) {
		return
	}
	role := RegistryExprRole(fun.X)
	if role == RoleUnknown {
		return
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Uses[arg]
	if obj == nil {
		return
	}
	// Is the name argument one of fd's parameters?
	idx := 0
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, pname := range field.Names {
			if info.Defs[pname] == obj {
				fi.RegForwards = append(fi.RegForwards, RegForward{ParamIndex: idx, Role: role})
				return
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
}
