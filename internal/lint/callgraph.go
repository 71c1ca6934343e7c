package lint

// An interprocedural call graph over go/types, built CHA-style (class
// hierarchy analysis) from the packages a Loader has type-checked:
//
//   - Direct calls to declared functions and concrete methods become
//     static edges.
//   - Calls through an interface method resolve to every loaded named
//     type implementing the interface (the CHA approximation); with no
//     loaded implementation the site is recorded as unresolved.
//   - A function merely referenced as a value (method value, function
//     passed as an argument) contributes a reference edge — the callee
//     may run whenever the value is invoked, so the edge joins the
//     SCC order, but summaries do not propagate across it: taking a
//     method value under a lock does not call it.
//   - Calls through function-typed variables are unresolved: the
//     callee set is unknowable without a points-to analysis.
//
// Function literals are not nodes of their own: their bodies are
// attributed to the enclosing declaration, which over-approximates
// "may call" — exactly what the bottom-up summaries need.
//
// On top of the graph, Facts() propagates per-function summaries —
// may-acquire-which-locks?, may-block?, calls-unknown? — bottom-up
// over Tarjan SCCs to a fixed point. The summary sets only grow, so
// the iteration terminates even on recursive cycles (callgraph_test
// pins this).
//
// The graph is cached on the Loader and invalidated by generation
// (number of loaded packages), since the fixture harness loads
// packages incrementally into one shared Loader.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// CGEdgeKind classifies a call-graph edge.
type CGEdgeKind int

const (
	// CallStatic is a direct call to a declared function or concrete
	// method.
	CallStatic CGEdgeKind = iota
	// CallCHA is an interface-method call resolved by class-hierarchy
	// analysis to one loaded implementation (one edge per implementer).
	CallCHA
	// CallRef is a reference to the function as a value; it may be
	// invoked later, from anywhere.
	CallRef
)

// CGEdge is one outgoing edge of a call-graph node.
type CGEdge struct {
	Callee *CGNode
	Kind   CGEdgeKind
	// Pos is the call or reference site in the caller.
	Pos token.Pos
}

// UnresolvedCall is a call site whose callee set is unknown (function
// value, or interface method with no loaded implementation).
type UnresolvedCall struct {
	Pos  token.Pos
	Desc string
}

// CGNode is one function in the call graph.
type CGNode struct {
	Fn *types.Func
	// Src is the loaded declaration, nil for functions whose bodies
	// were not loaded (standard library).
	Src        *FuncSource
	Calls      []CGEdge
	Unresolved []UnresolvedCall
	// SCC indexes CallGraph.SCCs; SCCs are numbered bottom-up (callees
	// before callers).
	SCC int

	index, lowlink int
	onStack        bool
}

// CallGraph is the interprocedural call graph of every package the
// Loader has loaded.
type CallGraph struct {
	l     *Loader
	nodes map[*types.Func]*CGNode
	// Funcs are the nodes with loaded sources, in declaration order
	// (file name, then offset) — the deterministic iteration order
	// every client uses.
	Funcs []*CGNode
	// SCCs lists the strongly connected components bottom-up: every
	// callee's component appears before (or with) its caller's.
	SCCs [][]*CGNode

	named []*types.Named // CHA candidates, sorted by type string
	// mu guards the lazily-filled caches (nodes, impls) that analyzer
	// Check calls can touch after construction: the parallel driver
	// (parallel.go) runs Checks across packages concurrently, and
	// implementersOf is exercised per call site. The cache contents are
	// deterministic functions of the loaded packages, so guarded lazy
	// fills keep results independent of execution order.
	mu    sync.Mutex
	impls map[implKey][]*types.Func

	facts map[*CGNode]*FuncFacts
	order *lockOrder
}

type implKey struct {
	iface  *types.Interface
	method string
}

// CallGraph returns the call graph over every loaded package, building
// it on first use and rebuilding when more packages have been loaded
// since.
func (l *Loader) CallGraph() *CallGraph {
	if l.cg != nil && l.cgGen == len(l.pkgs) {
		return l.cg
	}
	g := &CallGraph{
		l:     l,
		nodes: map[*types.Func]*CGNode{},
		impls: map[implKey][]*types.Func{},
	}
	g.collectNamed()
	// Deterministic node order: declaration position.
	srcs := make([]*types.Func, 0, len(l.funcs))
	for fn := range l.funcs {
		srcs = append(srcs, fn)
	}
	sort.Slice(srcs, func(i, j int) bool { return posLess(l.Fset, srcs[i].Pos(), srcs[j].Pos()) })
	for _, fn := range srcs {
		g.Funcs = append(g.Funcs, g.node(fn))
	}
	for _, n := range g.Funcs {
		g.addEdges(n)
	}
	g.tarjan()
	l.cg, l.cgGen = g, len(l.pkgs)
	return g
}

func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// collectNamed gathers the named non-interface types CHA resolves
// interface calls against: every type declared in a loaded package,
// plus the sync package's (so sync.Locker resolves to *sync.Mutex /
// *sync.RWMutex without loading sync sources).
func (g *CallGraph) collectNamed() {
	seen := map[*types.TypeName]bool{}
	addScope := func(scope *types.Scope, exportedOnly bool) {
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || seen[tn] {
				continue
			}
			if exportedOnly && !tn.Exported() {
				// Unexported types of a non-module package (sync.noCopy,
				// sync.rlocker) can never be the dynamic type behind an
				// interface held by module code, and including them poisons
				// the "every implementation is a real lock" test in
				// lockIfaceType.
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue // generic types need instantiation to implement anything
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			seen[tn] = true
			g.named = append(g.named, named)
		}
	}
	var syncPkg *types.Package
	for _, path := range sortedPkgPaths(g.l.pkgs) {
		pkg := g.l.pkgs[path]
		addScope(pkg.Types.Scope(), false)
		if syncPkg == nil {
			for _, imp := range pkg.Types.Imports() {
				if imp.Path() == "sync" {
					syncPkg = imp
					break
				}
			}
		}
	}
	if syncPkg != nil {
		addScope(syncPkg.Scope(), true)
	}
	sort.Slice(g.named, func(i, j int) bool {
		return types.TypeString(g.named[i], nil) < types.TypeString(g.named[j], nil)
	})
}

func sortedPkgPaths(pkgs map[string]*Package) []string {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func (g *CallGraph) node(fn *types.Func) *CGNode {
	fn = fn.Origin()
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &CGNode{Fn: fn, Src: g.l.funcs[fn], SCC: -1}
	g.nodes[fn] = n
	return n
}

func (n *CGNode) addCall(e CGEdge) {
	for _, have := range n.Calls {
		if have.Callee == e.Callee && have.Pos == e.Pos && have.Kind == e.Kind {
			return
		}
	}
	n.Calls = append(n.Calls, e)
}

// addEdges scans the body of n's declaration (including nested function
// literals) and records every call and function reference.
func (g *CallGraph) addEdges(n *CGNode) {
	decl := n.Src.Decl
	if decl.Body == nil {
		return
	}
	pkg := n.Src.Pkg
	// Idents appearing as the operator of a call are call sites; any
	// other ident resolving to a function is a reference.
	funIdents := map[*ast.Ident]bool{}
	ast.Inspect(decl.Body, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			funIdents[f] = true
		case *ast.SelectorExpr:
			funIdents[f.Sel] = true
		}
		return true
	})
	ast.Inspect(decl.Body, func(c ast.Node) bool {
		switch e := c.(type) {
		case *ast.CallExpr:
			g.callEdge(n, pkg, e)
		case *ast.Ident:
			if !funIdents[e] {
				if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
					g.funcEdge(n, pkg, fn, e.Pos(), CallRef)
				}
			}
		}
		return true
	})
}

func (g *CallGraph) callEdge(n *CGNode, pkg *Package, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	case *ast.FuncLit:
		return // immediately-invoked literal: body already attributed to n
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Explicit generic instantiation f[T](...): resolve the base.
		base := fun
		if ix, ok := fun.(*ast.IndexExpr); ok {
			base = ast.Unparen(ix.X)
		} else if ix, ok := fun.(*ast.IndexListExpr); ok {
			base = ast.Unparen(ix.X)
		}
		switch b := base.(type) {
		case *ast.Ident:
			obj = pkg.Info.Uses[b]
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[b.Sel]
		}
	default:
		n.Unresolved = append(n.Unresolved, UnresolvedCall{call.Pos(), "call through a function value"})
		return
	}
	switch o := obj.(type) {
	case *types.Builtin, *types.TypeName, *types.Nil:
		return
	case *types.Func:
		g.funcEdge(n, pkg, o, call.Pos(), CallStatic)
	default:
		n.Unresolved = append(n.Unresolved, UnresolvedCall{call.Pos(), "call through a function value"})
	}
}

// funcEdge records an edge from n to fn, expanding interface methods to
// their loaded implementations (CHA).
func (g *CallGraph) funcEdge(n *CGNode, pkg *Package, fn *types.Func, pos token.Pos, kind CGEdgeKind) {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := derefType(sig.Recv().Type()).Underlying().(*types.Interface); ok {
			impls := g.implementersOf(iface, fn)
			if len(impls) == 0 {
				n.Unresolved = append(n.Unresolved, UnresolvedCall{pos,
					fmt.Sprintf("interface method %s with no implementation among the loaded packages", fn.Name())})
				return
			}
			chaKind := CallCHA
			if kind == CallRef {
				chaKind = CallRef
			}
			for _, m := range impls {
				n.addCall(CGEdge{Callee: g.node(m), Kind: chaKind, Pos: pos})
			}
			return
		}
	}
	n.addCall(CGEdge{Callee: g.node(fn), Kind: kind, Pos: pos})
}

// implementersOf returns the concrete methods implementing the given
// interface method among the collected named types, sorted by
// declaration position.
func (g *CallGraph) implementersOf(iface *types.Interface, method *types.Func) []*types.Func {
	key := implKey{iface, method.Name()}
	g.mu.Lock()
	defer g.mu.Unlock()
	if impls, ok := g.impls[key]; ok {
		return impls
	}
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		m = m.Origin()
		if !seen[m] {
			seen[m] = true
			impls = append(impls, m)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return posLess(g.l.Fset, impls[i].Pos(), impls[j].Pos()) })
	g.impls[key] = impls
	return impls
}

// tarjan assigns every node its strongly connected component; SCCs are
// emitted callees-first, giving the bottom-up order Facts needs.
func (g *CallGraph) tarjan() {
	index := 1
	var stack []*CGNode
	var connect func(v *CGNode)
	connect = func(v *CGNode) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, e := range v.Calls {
			w := e.Callee
			if w.index == 0 {
				connect(w)
				if w.lowlink < v.lowlink {
					v.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < v.lowlink {
				v.lowlink = w.index
			}
		}
		if v.lowlink == v.index {
			var scc []*CGNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.SCC = len(g.SCCs)
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, v := range g.Funcs {
		if v.index == 0 {
			connect(v)
		}
	}
}

// FuncFacts is the bottom-up summary of one function: what it, or
// anything it transitively calls among the loaded sources, may do.
type FuncFacts struct {
	// MayAcquire maps each lock class the function may (transitively)
	// acquire to a witness acquisition site.
	MayAcquire map[string]token.Pos
	// MayBlock reports a reachable blocking operation: a channel send,
	// receive or blocking select, or a WaitGroup.Wait.
	MayBlock bool
	// BlockPos is a witness position for MayBlock.
	BlockPos token.Pos
	// CallsUnknown reports a reachable call whose callee set could not
	// be resolved (function value, unimplemented interface method, or
	// a function whose body was not loaded).
	CallsUnknown bool
}

// Facts computes the per-function summaries, propagated bottom-up over
// the SCCs to a fixed point. Reference edges do not propagate:
// mentioning a function is not calling it.
func (g *CallGraph) Facts() map[*CGNode]*FuncFacts {
	if g.facts != nil {
		return g.facts
	}
	facts := make(map[*CGNode]*FuncFacts, len(g.nodes))
	for _, n := range g.Funcs {
		facts[n] = directFacts(n)
	}
	for _, scc := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				f := facts[n]
				if f == nil {
					// External node pulled into the traversal: its body is
					// unknown, so anything calling it calls unknown code.
					continue
				}
				for _, e := range n.Calls {
					if e.Kind == CallRef {
						continue
					}
					cf := facts[e.Callee]
					if cf == nil {
						if !f.CallsUnknown {
							f.CallsUnknown = true
							changed = true
						}
						continue
					}
					if cf.CallsUnknown && !f.CallsUnknown {
						f.CallsUnknown = true
						changed = true
					}
					if cf.MayBlock && !f.MayBlock {
						f.MayBlock, f.BlockPos = true, cf.BlockPos
						changed = true
					}
					for class, pos := range cf.MayAcquire {
						if _, ok := f.MayAcquire[class]; !ok {
							f.MayAcquire[class] = pos
							changed = true
						}
					}
				}
			}
		}
	}
	g.facts = facts
	return facts
}

// directFacts scans one declaration body for the function's own
// contributions to its summary. Function literals in the body count —
// they usually run within the call (defer cleanups, callbacks invoked
// synchronously) — except literals spawned with go, whose operations
// happen on another goroutine.
func directFacts(n *CGNode) *FuncFacts {
	f := &FuncFacts{MayAcquire: map[string]token.Pos{}}
	decl := n.Src.Decl
	if decl.Body == nil {
		return f
	}
	pkg := n.Src.Pkg
	if len(n.Unresolved) > 0 {
		f.CallsUnknown = true
	}
	goBodies := goLitBodies(decl.Body)
	block := func(pos token.Pos) {
		if !f.MayBlock {
			f.MayBlock, f.BlockPos = true, pos
		}
	}
	ast.Inspect(decl.Body, func(c ast.Node) bool {
		if lit, ok := c.(*ast.FuncLit); ok && goBodies[lit] {
			return false
		}
		switch e := c.(type) {
		case *ast.SendStmt:
			block(e.Pos())
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				block(e.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) {
				block(e.Pos())
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					block(e.Pos())
				}
			}
		case *ast.CallExpr:
			if sc := syncCallOf(pkg, e); sc != nil {
				switch {
				case sc.typ == "WaitGroup" && sc.method == "Wait":
					block(e.Pos())
				case sc.method == "Lock" || sc.method == "RLock":
					sel := ast.Unparen(e.Fun).(*ast.SelectorExpr)
					if class := lockClassOf(pkg, sel.X); class != "" {
						if _, ok := f.MayAcquire[class]; !ok {
							f.MayAcquire[class] = e.Pos()
						}
					}
				}
			}
		}
		return true
	})
	return f
}

// goLitBodies collects the function literals directly spawned as
// goroutines (go func(){...}()) anywhere under body.
func goLitBodies(body ast.Node) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(c ast.Node) bool {
		if g, ok := c.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// lockClassOf maps the receiver lvalue of a Lock/Unlock call to a
// global lock class — the identity locks are ordered by across
// functions. A lock reached through a field of a named type gets the
// deepest such type as its class ("(core.registry).mu": every instance
// shares one class, the usual granularity for ordering). A
// package-level lock is its own class ("core.solveMu"). Locals,
// parameters and untypeable chains return "" — they still participate
// in the per-function held-set via their expression keys, but not in
// the global order graph.
func lockClassOf(pkg *Package, e ast.Expr) string {
	var fields []string
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if named, ok := derefType(pkg.Info.TypeOf(v.X)).(*types.Named); ok && named.Obj().Pkg() != nil {
				parts := append([]string{"(" + named.Obj().Pkg().Name() + "." + named.Obj().Name() + ")", v.Sel.Name}, fields...)
				return strings.Join(parts, ".")
			}
			fields = append([]string{v.Sel.Name}, fields...)
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			// Element locks share their container's class: conservative
			// for ordering (mu[i] vs mu[j] collapse), but index-dependent
			// lock orders are beyond a static class anyway.
			e = v.X
		case *ast.Ident:
			obj := pkg.Info.ObjectOf(v)
			if vr, ok := obj.(*types.Var); ok && !vr.IsField() && vr.Parent() != nil &&
				vr.Parent().Parent() == types.Universe && vr.Pkg() != nil {
				return strings.Join(append([]string{vr.Pkg().Name() + "." + vr.Name()}, fields...), ".")
			}
			return ""
		default:
			return ""
		}
	}
}
