package lint

// deadlock lifts lockbalance's per-path lock states into a global
// lock-order graph across the call graph and reports two potential-
// deadlock shapes:
//
//  1. Cyclic acquisition order. Within each function (and each function
//     literal), a forward dataflow tracks which locks may be held at
//     every point; acquiring B while A is held adds the order edge
//     A→B. Calls are folded in through the call graph's bottom-up
//     summaries: calling g while A is held adds A→B for every lock
//     class B that g may transitively acquire. Lock classes are global
//     — "(core.registry).mu" for a lock reached through a field of a
//     named type (all instances share a class), "core.solveMu" for a
//     package-level lock — so edges from different functions and
//     packages land in one graph. Every edge inside a cyclic strongly
//     connected component is reported at its acquisition (or call)
//     site, citing a witness for the opposite order.
//
//  2. A lock held across a blocking operation: a channel send or
//     receive, a blocking select (one without a default), a range over
//     a channel, a sync.WaitGroup.Wait, or a call to a function that
//     may (transitively) do any of those. If the operation blocks, the
//     lock stays held and every other goroutine needing it deadlocks
//     behind it.
//
// Deliberate approximations, chosen to keep the signal usable:
// operations inside `go` statements run with an empty held-set (the
// spawned goroutine has its own stack; its body is analyzed as its own
// unit); deferred calls other than Unlock are not traced; sync.Cond is
// ignored (Cond.Wait releases its lock); locks whose class cannot be
// resolved (locals, parameters) still participate in held-set tracking
// and blocking reports, but not in the global order graph; calls to
// functions whose bodies were not loaded are trusted not to block.
// Intended cases — a buffered send that provably cannot block — are
// suppressed with an audited //lopc:allow deadlock comment.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Deadlock reports cyclic lock-acquisition orders and locks held
// across blocking operations.
type Deadlock struct{}

func (*Deadlock) Name() string { return "deadlock" }
func (*Deadlock) Doc() string {
	return "no cyclic lock-acquisition order across functions; no lock held across a blocking channel op or Wait"
}

// Held-set states (bit positions in a stateFact mask).
const (
	dlUnheld = 0
	dlHeld   = 1
)

// dlEdge is one lock-order edge: `to` acquired while `from` is held.
type dlEdge struct {
	from, to string
	pos      token.Pos // acquisition or call site
	via      string    // callee name for call-mediated edges, "" for direct
	viaPos   token.Pos // where the callee acquires `to` (call-mediated only)
}

// dlBlock is one lock-held-across-blocking-operation site.
type dlBlock struct {
	pos    token.Pos
	desc   string // "channel send", "sync.WaitGroup.Wait", ...
	held   []string
	via    string // callee name for call-mediated blocks
	viaPos token.Pos
}

// lockOrder is the global order graph over every loaded package,
// cached on the CallGraph.
type lockOrder struct {
	edges  []dlEdge
	blocks []dlBlock
	// inCycle marks the indices of edges that lie inside a cyclic SCC
	// of the class graph.
	inCycle []int
}

func (g *CallGraph) lockOrderGraph() *lockOrder {
	if g.order != nil {
		return g.order
	}
	ord := &lockOrder{}
	facts := g.Facts()
	for _, path := range sortedPkgPaths(g.l.pkgs) {
		pkg := g.l.pkgs[path]
		for _, f := range pkg.Files {
			funcNodes(f, func(fn ast.Node, body *ast.BlockStmt) {
				collectUnitOrder(g, facts, pkg, body, ord)
			})
		}
	}
	ord.findCycles()
	g.order = ord
	return ord
}

// collectUnitOrder runs the held-set dataflow over one function body
// and records its order edges and blocking sites.
func collectUnitOrder(g *CallGraph, facts map[*CGNode]*FuncFacts, pkg *Package, body *ast.BlockStmt, ord *lockOrder) {
	if !hasMutexOps(pkg, body) {
		return
	}
	cfg := NewCFG(body)
	classOf := map[string]string{} // held-set key -> lock class ("" when unresolvable)
	classFor := func(sc *syncCall) string {
		key := sc.recvKey
		if c, ok := classOf[key]; ok {
			return c
		}
		c := ""
		if sel, ok := ast.Unparen(sc.call.Fun).(*ast.SelectorExpr); ok {
			c = lockClassOf(pkg, sel.X)
		}
		classOf[key] = c
		return c
	}
	transfer := func(n ast.Node, in Fact) Fact {
		fact := in.(stateFact)
		for _, op := range mutexOpsIn(pkg, n) {
			if op.deferred {
				continue // deferred Unlock releases at exit: held until then
			}
			classFor(op.sc)
			switch op.sc.method {
			case "Lock", "RLock":
				fact = fact.with(op.sc.recvKey, 1<<dlHeld)
			case "Unlock", "RUnlock":
				fact = fact.with(op.sc.recvKey, 1<<dlUnheld)
			}
		}
		return fact
	}
	solved := Forward(cfg, stateFact{}, transfer)

	env := newUnitEnv(pkg, body)
	seenEdge := map[string]bool{}
	addEdge := func(e dlEdge) {
		k := fmt.Sprintf("%s\x00%s\x00%d\x00%s", e.from, e.to, e.pos, e.via)
		if !seenEdge[k] {
			seenEdge[k] = true
			ord.edges = append(ord.edges, e)
		}
	}
	heldNow := func(fact stateFact, exceptKey string) (keys []string) {
		for _, k := range sortedKeys(fact) {
			if k != exceptKey && fact.has(k, dlHeld) {
				keys = append(keys, k)
			}
		}
		return keys
	}
	reportedSelect := map[token.Pos]bool{}

	for _, blk := range cfg.Blocks {
		in, ok := solved[blk]
		if !ok {
			continue // unreachable
		}
		fact := in.(stateFact)
		for _, n := range blk.Nodes {
			// Order edges at direct acquisitions.
			for _, op := range mutexOpsIn(pkg, n) {
				if op.deferred || (op.sc.method != "Lock" && op.sc.method != "RLock") {
					continue
				}
				to := classFor(op.sc)
				if to != "" {
					for _, k := range heldNow(fact, op.sc.recvKey) {
						if from := classOf[k]; from != "" && from != to {
							addEdge(dlEdge{from: from, to: to, pos: op.sc.call.Pos()})
						}
					}
				}
			}
			// Blocking operations and call-mediated effects.
			if held := heldNow(fact, ""); len(held) > 0 {
				heldNames := make([]string, len(held))
				for i, k := range held {
					heldNames[i] = displayName(k)
				}
				walkBlockNode(n, func(c ast.Node) bool {
					if desc, pos, ok := env.blockingOp(c, reportedSelect); ok {
						ord.blocks = append(ord.blocks, dlBlock{pos: pos, desc: desc, held: heldNames})
						return true
					}
					call, ok := c.(*ast.CallExpr)
					if !ok || env.skipCalls[call] || syncCallOf(pkg, call) != nil {
						return true
					}
					for _, cf := range env.calleeFacts(g, facts, call) {
						for _, to := range sortedClassKeys(cf.facts.MayAcquire) {
							for _, k := range held {
								if from := classOf[k]; from != "" && from != to {
									addEdge(dlEdge{from: from, to: to, pos: call.Pos(),
										via: cf.name, viaPos: cf.facts.MayAcquire[to]})
								}
							}
						}
						if cf.facts.MayBlock {
							ord.blocks = append(ord.blocks, dlBlock{pos: call.Pos(),
								desc: "call", held: heldNames, via: cf.name, viaPos: cf.facts.BlockPos})
						}
					}
					return true
				})
			}
			fact = transfer(n, fact).(stateFact)
		}
	}
}

// unitEnv precomputes per-unit context: select ownership of channel
// operations (for the with-default exemption) and calls exempt from
// the held-across checks (go and defer calls).
type unitEnv struct {
	pkg       *Package
	selects   []*ast.SelectStmt
	skipCalls map[*ast.CallExpr]bool
}

func newUnitEnv(pkg *Package, body *ast.BlockStmt) *unitEnv {
	env := &unitEnv{pkg: pkg, skipCalls: map[*ast.CallExpr]bool{}}
	walkShallow(body, func(c ast.Node) bool {
		switch s := c.(type) {
		case *ast.SelectStmt:
			env.selects = append(env.selects, s)
		case *ast.GoStmt:
			env.skipCalls[s.Call] = true
		case *ast.DeferStmt:
			env.skipCalls[s.Call] = true
		}
		return true
	})
	return env
}

// owningSelect finds the select statement whose comm clause contains
// pos, if any.
func (env *unitEnv) owningSelect(pos token.Pos) *ast.SelectStmt {
	for _, s := range env.selects {
		for _, cc := range s.Body.List {
			c, ok := cc.(*ast.CommClause)
			if !ok || c.Comm == nil {
				continue
			}
			if pos >= c.Comm.Pos() && pos <= c.Comm.End() {
				return s
			}
		}
	}
	return nil
}

// blockingOp classifies node c as a (possibly) blocking channel/Wait
// operation. Operations in a select with a default are non-blocking; a
// select without one is reported once, at the select.
func (env *unitEnv) blockingOp(c ast.Node, reportedSelect map[token.Pos]bool) (string, token.Pos, bool) {
	classify := func(desc string, pos token.Pos) (string, token.Pos, bool) {
		if s := env.owningSelect(pos); s != nil {
			if selectHasDefault(s) || reportedSelect[s.Pos()] {
				return "", 0, false
			}
			reportedSelect[s.Pos()] = true
			return "blocking select", s.Pos(), true
		}
		return desc, pos, true
	}
	switch e := c.(type) {
	case *ast.SendStmt:
		return classify("channel send", e.Pos())
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return classify("channel receive", e.Pos())
		}
	case *ast.RangeStmt:
		if t := env.pkg.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", e.Pos(), true
			}
		}
	case *ast.CallExpr:
		if sc := syncCallOf(env.pkg, e); sc != nil && sc.typ == "WaitGroup" && sc.method == "Wait" {
			return "sync.WaitGroup.Wait", e.Pos(), true
		}
	}
	return "", 0, false
}

// namedFacts pairs a resolved callee with its summary.
type namedFacts struct {
	name  string
	facts *FuncFacts
}

// calleeFacts resolves call's callee set and returns the summaries of
// every loaded callee (CHA-expanded for interface methods). Unknown
// callees resolve to nothing: the check trusts unloaded code not to
// block, rather than flagging every stdlib call made under a lock.
func (env *unitEnv) calleeFacts(g *CallGraph, facts map[*CGNode]*FuncFacts, call *ast.CallExpr) []namedFacts {
	rc := resolveCallee(env.pkg, call)
	if rc == nil || rc.isBuiltinLike || rc.fn == nil {
		return nil
	}
	var out []namedFacts
	if rc.iface != nil {
		for _, m := range g.implementersOf(rc.iface, rc.fn) {
			if f := facts[g.node(m)]; f != nil {
				out = append(out, namedFacts{funcDisplayName(m), f})
			}
		}
		return out
	}
	if f := facts[g.node(rc.fn)]; f != nil {
		out = append(out, namedFacts{funcDisplayName(rc.fn), f})
	}
	return out
}

func sortedClassKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// findCycles marks the edges lying inside a cyclic SCC of the class
// graph, using Tarjan over the (sorted) class nodes.
func (o *lockOrder) findCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range o.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sort.Strings(adj[n])
	}
	scc := map[string]int{}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 1
	var connect func(v string)
	connect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			id := len(scc)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc[w] = id
				if w == v {
					break
				}
			}
		}
	}
	for _, v := range names {
		if index[v] == 0 {
			connect(v)
		}
	}
	for i, e := range o.edges {
		if e.from != e.to && scc[e.from] == scc[e.to] {
			o.inCycle = append(o.inCycle, i)
		}
	}
}

// reverseWitness finds, for a cyclic edge from→to, the first edge on a
// shortest path to→…→from, i.e. a site exhibiting the opposite order.
func (o *lockOrder) reverseWitness(from, to string) *dlEdge {
	type hop struct {
		cur   string
		first *dlEdge
	}
	queue := []hop{{cur: to}}
	seen := map[string]bool{to: true}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for i := range o.edges {
			e := &o.edges[i]
			if e.from != h.cur || seen[e.to] && e.to != from {
				continue
			}
			first := h.first
			if first == nil {
				first = e
			}
			if e.to == from {
				return first
			}
			seen[e.to] = true
			queue = append(queue, hop{cur: e.to, first: first})
		}
	}
	return nil
}

func (a *Deadlock) Check(l *Loader, pkg *Package) []Diagnostic {
	g := l.CallGraph()
	ord := g.lockOrderGraph()
	inPkg := map[string]bool{}
	for _, f := range pkg.Files {
		inPkg[l.Fset.Position(f.Pos()).Filename] = true
	}
	site := func(p token.Pos) string {
		pos := l.Fset.Position(p)
		return fmt.Sprintf("%s:%d", l.RelPath(pos.Filename), pos.Line)
	}
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     l.Fset.Position(pos),
			Check:   a.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, i := range ord.inCycle {
		e := ord.edges[i]
		if !inPkg[l.Fset.Position(e.pos).Filename] {
			continue
		}
		witness := "elsewhere in the cycle"
		if w := ord.reverseWitness(e.from, e.to); w != nil {
			witness = site(w.pos)
		}
		if e.via == "" {
			report(e.pos, "acquires %s while %s is held, but the opposite order appears at %s — cyclic lock order (deadlock risk); acquire these locks in one fixed order",
				e.to, e.from, witness)
		} else {
			report(e.pos, "call to %s acquires %s (%s) while %s is held, but the opposite order appears at %s — cyclic lock order (deadlock risk); acquire these locks in one fixed order",
				e.via, e.to, site(e.viaPos), e.from, witness)
		}
	}
	for _, b := range ord.blocks {
		if !inPkg[l.Fset.Position(b.pos).Filename] {
			continue
		}
		held := strings.Join(b.held, ", ")
		if b.via == "" {
			report(b.pos, "%s while holding %s; if it blocks, the lock stays held (deadlock risk) — release the lock first or make the operation non-blocking",
				b.desc, held)
		} else {
			report(b.pos, "call to %s may block on a channel operation (%s) while holding %s; release the lock before the call",
				b.via, site(b.viaPos), held)
		}
	}
	return out
}

// resolvedCallee describes the outcome of resolving a call's operator.
type resolvedCallee struct {
	fn            *types.Func
	iface         *types.Interface // non-nil for interface-method calls
	isBuiltinLike bool
}

// resolveCallee resolves call's operator to a declared function,
// builtin, or interface method; nil means a function value.
func resolveCallee(pkg *Package, call *ast.CallExpr) *resolvedCallee {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	case *ast.FuncLit:
		// Immediately-invoked literal: its body belongs to the
		// enclosing declaration (literals are not call-graph nodes).
		return &resolvedCallee{isBuiltinLike: true}
	case *ast.IndexExpr:
		return resolveGenericCallee(pkg, f.X)
	case *ast.IndexListExpr:
		return resolveGenericCallee(pkg, f.X)
	}
	switch o := obj.(type) {
	case *types.Builtin:
		return &resolvedCallee{isBuiltinLike: true}
	case *types.Func:
		return calleeOfFunc(o)
	}
	return nil
}

func resolveGenericCallee(pkg *Package, base ast.Expr) *resolvedCallee {
	switch b := ast.Unparen(base).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[b].(*types.Func); ok {
			return calleeOfFunc(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[b.Sel].(*types.Func); ok {
			return calleeOfFunc(fn)
		}
	}
	return nil
}

func calleeOfFunc(fn *types.Func) *resolvedCallee {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := derefType(sig.Recv().Type()).Underlying().(*types.Interface); ok {
			return &resolvedCallee{fn: fn, iface: iface}
		}
	}
	return &resolvedCallee{fn: fn}
}

// funcDisplayName renders fn as pkg.Name or (pkg.Recv).Name.
func funcDisplayName(fn *types.Func) string {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
			return "(" + pkgName + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}
