package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoallocDirective marks a function whose body must not contain
// allocating constructs. It lives in the function's doc comment:
//
//	// route runs crossing-aware A* for one net.
//	//rdl:noalloc
//	func (r *Router) route(net design.Net) (*searchResult, error) { ... }
//
// The analyzer pins the zero-allocation contract at the definition site
// instead of only in an allocation-counting test: the test says "this
// regressed", the annotation says "here is the line that regressed it".
const NoallocDirective = "//rdl:noalloc"

// Noalloc checks every //rdl:noalloc function, and every unannotated
// helper it reaches through the module call graph, for allocating
// constructs:
//
//   - make and new, slice and map literals, escaping composite literals,
//     closures and method values;
//   - appends outside the two reuse idioms, the amortized self-append
//     `x = append(x, ...)` and the in-place `append(x[:i], ...)`, which
//     write into an existing backing array once warm. A three-index base
//     `append(x[:0:0], ...)` is the clone idiom and allocates every call,
//     and so does a self-append onto a local the function starts empty
//     (`var s []int` or `s = nil`);
//   - the address of stack memory: `&x`, `&x.f`, `&x[i]` or `x[:]` of a
//     local variable or parameter reached without a pointer, slice or
//     map, and a pointer-method call on such a value (an implicit `&x`).
//     The value moves to the heap whenever the pointer escapes;
//   - string concatenation and the string<->[]byte and string(integer)
//     conversions;
//   - interface boxing wherever a concrete value meets an interface:
//     assignments, var declarations, call and append arguments,
//     conversions, returns, composite-literal fields, elements and keys,
//     channel sends and map keys;
//   - static calls that leave the module and return a pointer, slice,
//     map, chan, func, interface or string (errors.New, strconv.Itoa):
//     the callee's body is out of view, and such a result is usually
//     fresh memory.
//
// From each root the walk follows the statically resolvable call edges
// (callgraph.go) breadth first. A finding in a helper carries the call
// chain from the first root, in source order, that reaches it; an
// annotated callee ends the walk, since it is a root of its own. Calls
// the graph cannot see through (interface dispatch, func-typed fields or
// parameters, reassigned func values) are findings too: a human audits
// the callee. Audited and intentional sites, such as the four
// allocations the A* budget grants route+commit, carry
// //rdl:allow noalloc <reason>.
//
// What no syntax rule sees (map growth, an append that grows on every
// call, an allocation inside a library call that returns a plain value)
// is left to the measured gates: the AllocsPerRun tests and
// cmd/allocgate.
var Noalloc = &Analyzer{
	Name:      "noalloc",
	Doc:       "//rdl:noalloc functions and the unannotated helpers they reach may not contain allocating constructs or unresolvable calls; the sanctioned exceptions carry //rdl:allow noalloc",
	RunModule: runNoalloc,
}

func hasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == NoallocDirective {
			return true
		}
	}
	return false
}

func runNoalloc(p *ModulePass) {
	cg := buildCallGraph(p.Mod)
	// seen spans every root: a helper is checked once, under the first
	// root that reaches it, and by then its own callees have been walked
	// too. So each site is reported once, and one //rdl:allow discharges
	// it for every chain through it.
	seen := make(map[*funcNode]bool)
	type visit struct {
		node  *funcNode
		chain string // root -> ... -> node
	}
	for _, root := range cg.order {
		if !root.noalloc {
			continue
		}
		seen[root] = true
		queue := []visit{{root, shortFuncName(root.fn)}}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			ctx := "//rdl:noalloc function"
			if v.node != root {
				ctx = "a helper reached from //rdl:noalloc via " + v.chain
			}
			for _, s := range collectAllocSites(v.node, ctx) {
				p.Report(s.pos, s.msg)
			}
			for _, fn := range v.node.edges {
				if callee := cg.nodes[fn]; !callee.noalloc && !seen[callee] {
					seen[callee] = true
					queue = append(queue, visit{callee, v.chain + " -> " + shortFuncName(fn)})
				}
			}
		}
	}
}

// shortFuncName renders a function or method name for findings:
// "route" for package functions, "(*Router).route" for methods, with
// generic type arguments elided.
func shortFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
		star = "*"
	}
	name := "?"
	if named, isNamed := recv.(*types.Named); isNamed {
		name = named.Obj().Name()
	} else {
		name = recv.String()
		if i := strings.LastIndex(name, "."); i >= 0 {
			name = name[i+1:]
		}
	}
	return fmt.Sprintf("(%s%s).%s", star, name, fn.Name())
}

// allocSite is one allocating construct found in a function body.
type allocSite struct {
	pos token.Pos
	msg string
}

// collectAllocSites scans one function for the allocating constructs the
// noalloc contract bans and for the calls it cannot see through, and
// returns them without reporting. ctx names the function's role inside
// the messages.
func collectAllocSites(n *funcNode, ctx string) []allocSite {
	c := &allocChecker{info: n.pkg.Info, ctx: ctx}
	c.scan(n.decl)
	for _, call := range n.external {
		c.checkExternal(call)
	}
	for _, d := range n.dyns {
		c.sitef(d.pos, "%s in %s cannot be proven allocation-free; audit the callee and acknowledge with //rdl:allow noalloc", d.why, ctx)
	}
	return c.out
}

// allocChecker runs the noalloc body checks over one function, collecting
// sites instead of reporting them.
type allocChecker struct {
	info *types.Info
	ctx  string
	out  []allocSite
}

func (c *allocChecker) sitef(pos token.Pos, format string, args ...any) {
	c.out = append(c.out, allocSite{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (c *allocChecker) scan(fd *ast.FuncDecl) {
	admitted := c.admittedAppends(fd.Body)
	called := make(map[*ast.SelectorExpr]bool)

	var results *types.Tuple
	if fn, ok := c.info.Defs[fd.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			c.sitef(e.Pos(), "closure in %s: the func value and its captures escape to the heap", c.ctx)
			return false // its body is the closure's problem, not this function's
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				break
			}
			if _, ok := e.X.(*ast.CompositeLit); ok {
				c.sitef(e.Pos(), "address of composite literal in %s: the literal escapes to the heap", c.ctx)
				return false
			}
			if c.onStack(e.X) {
				c.sitef(e.Pos(), "&%s in %s takes the address of stack memory, which moves to the heap if the pointer escapes",
					types.ExprString(e.X), c.ctx)
			}
		case *ast.SliceExpr:
			if _, ok := under(c.info.TypeOf(e.X)).(*types.Array); ok && c.onStack(e.X) {
				c.sitef(e.Pos(), "slicing local array %s in %s takes its address, which moves it to the heap if the slice escapes",
					types.ExprString(e.X), c.ctx)
			}
		case *ast.SelectorExpr:
			if sel := c.info.Selections[e]; sel != nil && sel.Kind() == types.MethodVal && !called[e] {
				c.sitef(e.Pos(), "method value %s in %s allocates a closure bound to its receiver", types.ExprString(e), c.ctx)
			}
		case *ast.CompositeLit:
			switch c.info.Types[e].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				c.sitef(e.Pos(), "%s literal in %s allocates its backing store",
					kindName(c.info.Types[e].Type), c.ctx)
			}
			c.checkLiteralBoxing(e)
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(c.info.Types[e.X].Type) {
				c.sitef(e.Pos(), "string concatenation in %s allocates the result", c.ctx)
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isString(c.info.Types[e.Lhs[0]].Type) {
				c.sitef(e.Pos(), "string concatenation in %s allocates the result", c.ctx)
			}
			c.checkBoxingAssign(e)
		case *ast.ValueSpec:
			if len(e.Values) == len(e.Names) {
				for i, name := range e.Names {
					if obj := c.info.Defs[name]; obj != nil {
						c.box("declaration", obj.Type(), e.Values[i])
					}
				}
			}
		case *ast.SendStmt:
			if ch, ok := under(c.info.TypeOf(e.Chan)).(*types.Chan); ok {
				c.box("send", ch.Elem(), e.Value)
			}
		case *ast.IndexExpr:
			if m, ok := under(c.info.TypeOf(e.X)).(*types.Map); ok {
				c.box("map key", m.Key(), e.Index)
			}
		case *ast.ReturnStmt:
			if results != nil && len(e.Results) == results.Len() {
				for i, r := range e.Results {
					c.box("return", results.At(i).Type(), r)
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
				c.checkPointerMethod(sel)
			}
			c.checkCall(e, admitted)
		}
		return true
	})
}

// admittedAppends collects the append calls in the non-allocating
// steady-state shapes, `x = append(x, ...)` and `y = append(x[:i], ...)`,
// as true. A self-append onto a local that starts empty is no reuse, since
// it grows a fresh backing array on every call; it is collected as false,
// so checkCall can name the cause.
func (c *allocChecker) admittedAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	fresh := c.emptyLocals(body)
	admitted := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !c.isBuiltin(call.Fun, "append") || len(call.Args) == 0 {
				continue
			}
			if s, isSliceExpr := call.Args[0].(*ast.SliceExpr); isSliceExpr && !s.Slice3 {
				admitted[call] = true
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				id, isIdent := as.Lhs[i].(*ast.Ident)
				admitted[call] = !isIdent || !fresh[c.info.ObjectOf(id)]
			}
		}
		return true
	})
	return admitted
}

// emptyLocals returns the local variables of body that start empty: those
// declared without an initializer or with nil, and those set to nil
// anywhere in the body.
func (c *allocChecker) emptyLocals(body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.ValueSpec:
			for i, name := range e.Names {
				if len(e.Values) == 0 || (len(e.Values) == len(e.Names) && c.isNil(e.Values[i])) {
					if v, ok := c.info.Defs[name].(*types.Var); ok {
						fresh[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(e.Lhs) != len(e.Rhs) {
				break
			}
			for i, lhs := range e.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && c.isNil(e.Rhs[i]) {
					if v, ok := c.info.ObjectOf(id).(*types.Var); ok && isLocal(v) {
						fresh[v] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// isNil reports whether e is nil or a conversion of nil, as in []int(nil).
func (c *allocChecker) isNil(e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 && c.info.Types[call.Fun].IsType() {
		return c.isNil(call.Args[0])
	}
	return c.info.Types[e].IsNil()
}

// isLocal reports whether v is a local variable or parameter, not a
// package-level variable or a field.
func isLocal(v *types.Var) bool {
	return !v.IsField() && v.Parent() != nil && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

func (c *allocChecker) checkCall(call *ast.CallExpr, admitted map[*ast.CallExpr]bool) {
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				c.sitef(call.Pos(), "%s in %s allocates", b.Name(), c.ctx)
			case "append":
				if reuse, self := admitted[call]; self && !reuse {
					c.sitef(call.Pos(), "self-append onto %s in %s: the local starts empty, so the append grows a fresh backing array on every call",
						types.ExprString(call.Args[0]), c.ctx)
				} else if !reuse {
					c.sitef(call.Pos(), "append outside the reuse idioms (x = append(x, ...) or append(x[:i], ...)) in %s can grow a fresh backing array", c.ctx)
				}
				if sl, ok := under(c.info.TypeOf(call.Args[0])).(*types.Slice); ok && !call.Ellipsis.IsValid() {
					for _, arg := range call.Args[1:] {
						c.box("append element", sl.Elem(), arg)
					}
				}
			}
			return
		}
	}

	tv, ok := c.info.Types[call.Fun]
	if !ok {
		return
	}
	// Conversions.
	if tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		src := c.info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case stringBytesConv(dst, src):
			c.sitef(call.Pos(), "conversion %s(%s) in %s copies the data",
				dst, types.ExprString(call.Args[0]), c.ctx)
		case isString(dst) && isInteger(src) && c.info.Types[call].Value == nil:
			c.sitef(call.Pos(), "conversion %s(%s) in %s allocates the string",
				dst, types.ExprString(call.Args[0]), c.ctx)
		default:
			c.box("conversion", dst, call.Args[0])
		}
		return
	}
	// Ordinary calls: check arguments against interface parameters.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		c.box("argument", paramType(sig, i, call.Ellipsis.IsValid()), arg)
	}
}

// checkPointerMethod reports a pointer-method call on a value held in
// stack memory: the call takes the value's address implicitly.
func (c *allocChecker) checkPointerMethod(fun *ast.SelectorExpr) {
	sel := c.info.Selections[fun]
	if sel == nil || sel.Kind() != types.MethodVal || sel.Indirect() {
		return
	}
	_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
	_, ptrVal := sel.Recv().Underlying().(*types.Pointer)
	if ptrRecv && !ptrVal && c.onStack(fun.X) {
		c.sitef(fun.Pos(), "pointer-method call %s in %s takes the address of stack memory, which moves to the heap if the receiver escapes",
			types.ExprString(fun), c.ctx)
	}
}

// checkExternal reports a static call that leaves the module and returns
// a value that can hold fresh heap memory.
func (c *allocChecker) checkExternal(call *ast.CallExpr) {
	sig, ok := under(c.info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		default:
			if !isString(t) {
				continue
			}
		}
		c.sitef(call.Pos(), "call to %s leaves the module and returns %s in %s; its result may be fresh heap memory",
			types.ExprString(call.Fun), t, c.ctx)
		return
	}
}

// onStack reports whether expr denotes memory of a local variable or
// parameter, reached only through struct fields and array elements —
// never through a pointer, slice or map, which lead to memory the
// variable does not own.
func (c *allocChecker) onStack(expr ast.Expr) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			v, ok := c.info.Uses[e].(*types.Var)
			return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
		case *ast.SelectorExpr:
			sel := c.info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal || sel.Indirect() {
				return false
			}
			expr = e.X
		case *ast.IndexExpr:
			if _, ok := under(c.info.TypeOf(e.X)).(*types.Array); !ok {
				return false
			}
			expr = e.X
		default:
			return false
		}
	}
}

// checkLiteralBoxing reports the fields, elements and keys of a composite
// literal that box a concrete value.
func (c *allocChecker) checkLiteralBoxing(lit *ast.CompositeLit) {
	t := under(c.info.TypeOf(lit))
	for i, elt := range lit.Elts {
		key, val := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.(type) {
		case *types.Struct:
			if key == nil {
				c.box("field", u.Field(i).Type(), val)
			} else if f, ok := c.info.Uses[key.(*ast.Ident)].(*types.Var); ok {
				c.box("field", f.Type(), val)
			}
		case *types.Slice:
			c.box("element", u.Elem(), val)
		case *types.Array:
			c.box("element", u.Elem(), val)
		case *types.Map:
			c.box("key", u.Key(), key)
			c.box("element", u.Elem(), val)
		}
	}
}

func (c *allocChecker) checkBoxingAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if as.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		} else if tv, ok := c.info.Types[lhs]; ok {
			lt = tv.Type
		}
		c.box("assignment", lt, as.Rhs[i])
	}
}

// box reports a site when storing expr into a destination of type dst
// wraps a concrete value in an interface (which may heap-allocate the
// value). what names the kind of store.
func (c *allocChecker) box(what string, dst types.Type, expr ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := c.info.Types[expr]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	c.sitef(expr.Pos(), "%s boxes %s into interface %s in %s", what, types.ExprString(expr), dst, c.ctx)
}

// paramType resolves the parameter type matching argument i, unrolling
// variadics.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if ellipsis {
			return last // the slice is passed whole; no per-element boxing
		}
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// isBuiltin reports whether fun names the given builtin.
func (c *allocChecker) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// under is t's underlying type, or nil for an untyped expression.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := under(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := under(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func stringBytesConv(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := under(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return t.String()
}
