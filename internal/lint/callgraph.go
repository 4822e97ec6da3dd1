package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Whole-module call graph.
//
// The graph is built once per noalloc run over the packages the module
// loader already type-checked: one node per function or method declared
// in the module, one edge per call site the type checker can resolve to
// a single callee. Resolvable calls are direct function calls, method
// calls on concrete (non-interface) receivers — including generic
// instantiations, which are folded onto their origin declaration — and
// calls through a local variable bound exactly once to a statically
// known function. Everything else (interface dispatch, func-typed fields
// and parameters, reassigned function variables) is recorded as a
// dynamic site: the analysis cannot see through it, so a contract
// crossing one must be discharged by a human with an audited
// //rdl:allow.
//
// Resolvable calls that leave the module (standard library) do not
// become edges, since their bodies are outside the loader's view. They
// are kept as external calls, which the noalloc checks judge by their
// result types.

// dynSite is one call the static resolver cannot see through.
type dynSite struct {
	pos token.Pos
	why string // why it is dynamic, for the finding message
}

// funcNode is one declared function or method of the module.
type funcNode struct {
	fn       *types.Func
	decl     *ast.FuncDecl
	pkg      *Package
	noalloc  bool
	edges    []*types.Func   // intra-module static callees (origin declarations), in source order
	external []*ast.CallExpr // static calls that leave the module, in source order
	dyns     []dynSite       // unresolvable calls, in source order
}

// callGraph indexes the module's functions by their declaration object.
type callGraph struct {
	nodes map[*types.Func]*funcNode
	// order lists the nodes sorted by source position for deterministic
	// traversal.
	order []*funcNode
}

// buildCallGraph constructs the call graph of a loaded module.
func buildCallGraph(m *Module) *callGraph {
	cg := &callGraph{nodes: make(map[*types.Func]*funcNode)}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{fn: fn, decl: fd, pkg: pkg, noalloc: hasNoallocDirective(fd)}
				cg.nodes[fn] = n
				cg.order = append(cg.order, n)
			}
		}
	}
	sort.Slice(cg.order, func(i, j int) bool {
		a, b := m.Fset.Position(cg.order[i].decl.Pos()), m.Fset.Position(cg.order[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, n := range cg.order {
		cg.resolveCalls(n)
	}
	return cg
}

// resolveCalls fills one node's edges and dynamic sites.
func (cg *callGraph) resolveCalls(n *funcNode) {
	binds := localFuncBindings(n.pkg.Info, n.decl.Body)
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		cg.resolveCall(n, call, binds)
		return true
	})
}

func (cg *callGraph) resolveCall(n *funcNode, call *ast.CallExpr, binds map[types.Object]*types.Func) {
	info := n.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Generic instantiation syntax f[T](...) wraps the callee expression.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncInstance(info, ix.X) {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if isFuncInstance(info, ix.X) {
			fun = ast.Unparen(ix.X)
		}
	}

	switch e := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Builtin, *types.TypeName, *types.Nil, nil:
			return // builtin, conversion, or unresolved: no callee body
		case *types.Func:
			cg.addEdge(n, obj, call)
		case *types.Var:
			if target, ok := binds[obj]; ok {
				cg.addEdge(n, target, call)
				return
			}
			n.dyns = append(n.dyns, dynSite{call.Pos(), "call through func value " + e.Name})
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				n.dyns = append(n.dyns, dynSite{call.Pos(), "call through func-typed field " + e.Sel.Name})
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				if types.IsInterface(sel.Recv()) {
					n.dyns = append(n.dyns, dynSite{call.Pos(), "interface method call " + e.Sel.Name})
					return
				}
				cg.addEdge(n, fn, call)
			}
			return
		}
		// Qualified identifier: pkg.F or pkg.V.
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			cg.addEdge(n, obj, call)
		case *types.Var:
			n.dyns = append(n.dyns, dynSite{call.Pos(), "call through package-level func variable " + e.Sel.Name})
		}
	case *ast.FuncLit:
		// Immediately invoked literal: the literal itself is an alloc
		// site the body checks flag; its body is scanned where the
		// literal is written, not through the graph.
	default:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return // conversion
		}
		if _, ok := info.Types[fun].Type.Underlying().(*types.Signature); ok {
			n.dyns = append(n.dyns, dynSite{call.Pos(), "call through computed func value"})
		}
	}
}

// addEdge records a static call, folding generic instantiations onto
// their origin declaration. A callee declared outside the module has no
// body to analyze, so its call is kept as external instead.
func (cg *callGraph) addEdge(n *funcNode, fn *types.Func, call *ast.CallExpr) {
	origin := fn.Origin()
	if _, ok := cg.nodes[origin]; !ok {
		n.external = append(n.external, call)
		return
	}
	n.edges = append(n.edges, origin)
}

// isFuncInstance reports whether expr names a (generic) function rather
// than a map/slice being indexed.
func isFuncInstance(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		_, ok := info.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}

// localFuncBindings maps local variables that are bound exactly once to
// a statically known function — `f := pkg.Fn` followed only by calls —
// so those calls resolve as edges instead of dynamic sites. A second
// assignment anywhere in the body disqualifies the variable.
func localFuncBindings(info *types.Info, body *ast.BlockStmt) map[types.Object]*types.Func {
	bound := make(map[types.Object]*types.Func)
	dead := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr, define bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		var obj types.Object
		if define {
			obj = info.Defs[id]
		} else {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, seen := bound[obj]; seen || dead[obj] {
			dead[obj] = true
			delete(bound, obj)
			return
		}
		if rhs != nil {
			switch r := ast.Unparen(rhs).(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[r].(*types.Func); ok {
					bound[obj] = fn
					return
				}
			case *ast.SelectorExpr:
				if _, isMethodVal := info.Selections[r]; !isMethodVal {
					if fn, ok := info.Uses[r.Sel].(*types.Func); ok {
						bound[obj] = fn
						return
					}
				}
			}
		}
		dead[obj] = true
		delete(bound, obj)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i], as.Tok == token.DEFINE)
			}
		} else {
			for _, lhs := range as.Lhs {
				record(lhs, nil, as.Tok == token.DEFINE)
			}
		}
		return true
	})
	return bound
}
