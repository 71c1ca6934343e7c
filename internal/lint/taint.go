package lint

// A summary-based interprocedural taint engine for the determinism
// contract, built on the CHA call graph (callgraph.go): every function
// gets a taint summary — which inputs (receiver, parameters) and which
// nondeterministic sources (wall clock, global math/rand, environment,
// map iteration order, channel-completion order) may flow into each
// result, into the receiver's fields, through pointer parameters, and
// into package-level variables — propagated bottom-up over Tarjan SCCs
// to a fixed point. Summaries only grow, so the iteration terminates
// even on recursive cycles (taint_test pins this).
//
// The engine is a data-flow (explicit-flow) analysis with one
// implicit-flow rule: taint moves through assignments, composite
// literals, arithmetic, calls and channel sends, and the source kinds
// of an if or switch condition reach the returns and sink calls it
// guards (a returned constant chosen by a map-order value is as
// order-dependent as the value). Branches do not taint assignments.
// Within one function the analysis is flow-insensitive over a
// per-object environment, iterated to a local fixed point, with
// closures analyzed in the enclosing function's environment (captures
// share objects, so flows through captured variables need no extra
// machinery) and calls through idents bound to function literals or
// method values resolved to their targets.
//
// Sources, sinks and sanitizers live in one explicit registry below:
//
//   - sources introduce a taint kind (taintSources);
//   - sinks are call sites where a kind-tainted argument is a finding
//     (taintSinks) — detflow.go adds "result of an exported function"
//     as an implicit sink;
//   - sanitizers erase the order-dependence kinds (sortSanitizers:
//     sorting a collection makes its order deterministic again).
//
// Calls into code the engine cannot see (stdlib beyond the registry,
// function values it cannot resolve) conservatively propagate the
// union of their argument and receiver taints to their results: an
// unknown callee is assumed to pass taint through, never to create or
// erase it.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// taintKind enumerates the nondeterministic source kinds the engine
// tracks.
type taintKind uint8

const (
	// taintWallClock: values derived from a direct wall-clock read
	// (time.Now and friends) outside internal/clock.
	taintWallClock taintKind = iota
	// taintGlobalRand: values drawn from the shared math/rand global
	// source.
	taintGlobalRand
	// taintEnviron: values read from the process environment.
	taintEnviron
	// taintMapOrder: collections accumulated in map-iteration order.
	taintMapOrder
	// taintChanOrder: collections accumulated in channel-completion
	// order (unordered goroutine collection).
	taintChanOrder

	numTaintKinds
)

func (k taintKind) String() string {
	switch k {
	case taintWallClock:
		return "wall-clock"
	case taintGlobalRand:
		return "global math/rand"
	case taintEnviron:
		return "environment"
	case taintMapOrder:
		return "map-iteration-order"
	case taintChanOrder:
		return "channel-completion-order"
	}
	return "unknown"
}

// witness records where a taint kind was introduced, pre-rendered as a
// module-relative "desc (file:line)" string so diagnostics can name the
// source even when it sits in another package.
type witness struct {
	pos  token.Pos
	desc string
}

// taintVal is the engine's lattice element: a set of source kinds, a
// set of function inputs (bit 0 is the receiver when present, then the
// parameters in order), a kill mask, and one witness per kind. Join is
// elementwise union (kills intersect); the lattice is finite — kinds
// and inputs only grow, kill only shrinks — so fixed points exist.
//
// The kill mask carries sanitization across function boundaries: a
// value a callee sorted before returning has its order kinds erased
// *after* the caller's input taints are mapped in, so "build in map
// order, sort, return" summarizes as clean even though the input bits
// alone cannot express it. A kind joined in after the kill clears that
// kill bit again — conservatively, sanitized-then-recontaminated stays
// tainted.
type taintVal struct {
	kinds  uint8
	kill   uint8
	inputs uint32
	wit    [numTaintKinds]witness
}

func (a taintVal) empty() bool { return a.kinds == 0 && a.inputs == 0 && a.kill == 0 }

func (a taintVal) hasKinds() bool { return a.kinds != 0 }

func (a taintVal) union(b taintVal) taintVal {
	// The zero value is the join identity; without this, merging a
	// sanitized value into an untouched summary slot would drop the
	// kill mask (0 & kill == 0).
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	out := a
	out.kinds |= b.kinds
	out.inputs |= b.inputs
	out.kill = (a.kill & b.kill) &^ out.kinds
	for k := range out.wit {
		if out.wit[k].desc == "" {
			out.wit[k] = b.wit[k]
		}
	}
	return out
}

// eq reports value equality ignoring witnesses: witnesses never shrink
// the lattice, so fixed-point detection can ignore them.
func (a taintVal) eq(b taintVal) bool {
	return a.kinds == b.kinds && a.inputs == b.inputs && a.kill == b.kill
}

// kindVal builds a source-kind taint with its witness.
func kindVal(k taintKind, pos token.Pos, desc string) taintVal {
	v := taintVal{kinds: 1 << k}
	v.wit[k] = witness{pos, desc}
	return v
}

// firstWitness returns the witness of the lowest set kind, for
// diagnostics.
func (a taintVal) firstWitness() (taintKind, witness) {
	for k := taintKind(0); k < numTaintKinds; k++ {
		if a.kinds&(1<<k) != 0 {
			return k, a.wit[k]
		}
	}
	return 0, witness{}
}

// orderKinds masks the kinds a sort sanitizer erases.
const orderKinds = uint8(1<<taintMapOrder | 1<<taintChanOrder)

// --- the source/sink/sanitizer registry ----------------------------------

// taintSources is the source registry. internal/clock is exempt at the
// engine level: the package exists to wrap these calls.
var taintSources = func() map[[2]string]taintKind {
	m := map[[2]string]taintKind{}
	for name := range wallClockFuncs {
		m[[2]string{"time", name}] = taintWallClock
	}
	for _, name := range []string{"Getenv", "LookupEnv", "Environ"} {
		m[[2]string{"os", name}] = taintEnviron
	}
	for name := range globalRandFuncs {
		m[[2]string{"math/rand", name}] = taintGlobalRand
		m[[2]string{"math/rand/v2", name}] = taintGlobalRand
	}
	return m
}()

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that consume the shared global source. Constructors taking
// an explicit seed (New, NewSource, NewZipf, NewPCG, NewChaCha8) are
// deterministic and are not sources.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// sinkSpec marks a function or method as a taint sink: a kind-tainted
// argument reaching it is a detflow finding.
type sinkSpec struct {
	// pkgPath matches exactly for stdlib packages and as a path suffix
	// for module packages (so fixtures match too).
	pkgPath string
	// recv names the receiver type for methods, "" for functions.
	recv string
	name string
	// skipArgs leading arguments are not sinks (io.Writer destinations).
	skipArgs int
	// desc names the sink in diagnostics.
	desc string
}

// taintSinks is the sink registry: error messages, serialized output
// (CSV/JSON/formatted), trace output, and cache keys.
var taintSinks = []sinkSpec{
	{"fmt", "", "Errorf", 0, "an error message"},
	{"errors", "", "New", 0, "an error message"},
	{"fmt", "", "Sprintf", 0, "formatted output"},
	{"fmt", "", "Fprintf", 1, "formatted output"},
	{"fmt", "", "Fprintln", 1, "formatted output"},
	{"fmt", "", "Fprint", 1, "formatted output"},
	{"fmt", "", "Printf", 0, "formatted output"},
	{"fmt", "", "Println", 0, "formatted output"},
	{"fmt", "", "Print", 0, "formatted output"},
	{"encoding/json", "", "Marshal", 0, "JSON output"},
	{"encoding/json", "", "MarshalIndent", 0, "JSON output"},
	{"encoding/json", "Encoder", "Encode", 0, "JSON output"},
	{"encoding/csv", "Writer", "Write", 0, "CSV output"},
	{"encoding/csv", "Writer", "WriteAll", 0, "CSV output"},
	// The serve layer's canonical cache key: a nondeterministic
	// component would fracture the cache and break hit/cold byte
	// identity.
	{"internal/serve", "keyWriter", "num", 0, "a cache key"},
	{"internal/serve", "keyWriter", "int", 0, "a cache key"},
	{"internal/serve", "keyWriter", "bool", 0, "a cache key"},
}

// fprintSinkDescs marks the sinks whose formatted bytes typically land
// in experiment CSV/JSON artifacts; kept as one registry above.

// sortSanitizers are the calls that make a collection's order
// deterministic again: sorting erases the order-dependence kinds from
// their first argument.
var sortSanitizers = map[[2]string]bool{
	{"sort", "Sort"}: true, {"sort", "Stable"}: true,
	{"sort", "Slice"}: true, {"sort", "SliceStable"}: true,
	{"sort", "Strings"}: true, {"sort", "Ints"}: true, {"sort", "Float64s"}: true,
	{"slices", "Sort"}: true, {"slices", "SortFunc"}: true, {"slices", "SortStableFunc"}: true,
}

// --- per-function summaries ----------------------------------------------

// taintSummary is the bottom-up summary of one function: which inputs
// and source kinds flow into each result, the receiver's fields, and
// each pointer parameter's pointee.
type taintSummary struct {
	// results has one taintVal per declared result.
	results []taintVal
	// recvOut collects taint stored into the receiver.
	recvOut taintVal
	// paramOut collects taint stored through each input (receiver and
	// pointer/reference parameters), indexed like taintVal.inputs bits.
	paramOut []taintVal
	// inputs is the declared input count (receiver included).
	inputs int
	// hasRecv reports whether input 0 is a receiver.
	hasRecv bool
}

// TaintEngine holds the computed summaries and the taint of
// package-level variables across every loaded package.
type TaintEngine struct {
	l    *Loader
	g    *CallGraph
	sums map[*types.Func]*taintSummary
	// gmu guards globals: it is the one map reporting passes over
	// different packages write (a reporting pass merges into a copy of
	// its function's summary, so the shared summaries are only read
	// once the engine is built). At the fixed point the values no
	// longer change, but the map writes still happen and must be
	// serialized for the parallel driver.
	gmu     sync.Mutex
	globals map[*types.Var]taintVal
}

func (eng *TaintEngine) globalGet(v *types.Var) taintVal {
	eng.gmu.Lock()
	defer eng.gmu.Unlock()
	return eng.globals[v]
}

// globalJoin merges val into v's taint atomically and reports whether
// the lattice value (kinds/inputs) grew.
func (eng *TaintEngine) globalJoin(v *types.Var, val taintVal) bool {
	eng.gmu.Lock()
	defer eng.gmu.Unlock()
	cur := eng.globals[v]
	merged := cur.union(val)
	grew := !merged.eq(cur)
	if grew || merged.wit != cur.wit {
		eng.globals[v] = merged
	}
	return grew
}

// globalSanitize erases the order-dependence kinds from v atomically.
func (eng *TaintEngine) globalSanitize(v *types.Var) {
	eng.gmu.Lock()
	defer eng.gmu.Unlock()
	cur := eng.globals[v]
	if cur.kinds&orderKinds != 0 || cur.kill&orderKinds != orderKinds {
		cur.kinds &^= orderKinds
		cur.kill |= orderKinds
		eng.globals[v] = cur
	}
}

// Taint returns the interprocedural taint engine over every loaded
// package, building it on first use and rebuilding when more packages
// have been loaded since (the fixture harness loads incrementally).
func (l *Loader) Taint() *TaintEngine {
	if l.taint != nil && l.taintGen == len(l.pkgs) {
		return l.taint
	}
	g := l.CallGraph()
	eng := &TaintEngine{
		l:       l,
		g:       g,
		sums:    map[*types.Func]*taintSummary{},
		globals: map[*types.Var]taintVal{},
	}
	for _, n := range g.Funcs {
		eng.sums[n.Fn] = newSummary(n.Fn)
	}
	// Bottom-up over SCCs, iterating each component to its local fixed
	// point; the whole pass repeats while writes to package-level
	// variables keep feeding new taint back into readers (summaries and
	// the globals map only grow, so this terminates; the cap is a guard
	// against a non-monotone bug, not a convergence budget).
	for round := 0; round < 8; round++ {
		changed := false
		for _, scc := range g.SCCs {
			for iter := 0; ; iter++ {
				sccChanged := false
				for _, n := range scc {
					if n.Src == nil {
						continue
					}
					if eng.analyze(n, nil) {
						sccChanged = true
					}
				}
				if sccChanged {
					changed = true
				}
				if !sccChanged || iter >= 32 {
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	l.taint, l.taintGen = eng, len(l.pkgs)
	return eng
}

// newSummary sizes a summary from the function signature.
func newSummary(fn *types.Func) *taintSummary {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return &taintSummary{}
	}
	s := &taintSummary{hasRecv: sig.Recv() != nil}
	s.inputs = sig.Params().Len()
	if s.hasRecv {
		s.inputs++
	}
	if s.inputs > 32 {
		s.inputs = 32
	}
	s.results = make([]taintVal, sig.Results().Len())
	s.paramOut = make([]taintVal, s.inputs)
	return s
}

// clone returns a copy of s that shares no slice with it.
func (s *taintSummary) clone() *taintSummary {
	c := *s
	c.results = append([]taintVal(nil), s.results...)
	c.paramOut = append([]taintVal(nil), s.paramOut...)
	return &c
}

// summaryOf returns the summary for fn, nil when fn's body was not
// loaded.
func (eng *TaintEngine) summaryOf(fn *types.Func) *taintSummary {
	return eng.sums[fn.Origin()]
}

// clockExempt reports whether pkg is the sanctioned home for direct
// wall-clock calls.
func clockExempt(pkg *Package) bool {
	return pkg.Path == "internal/clock" || strings.HasSuffix(pkg.Path, "/internal/clock")
}

// taintReport is detflow's hook into the engine: called once per
// tainted sink argument during a reporting pass.
type taintReport func(pos token.Pos, sink string, v taintVal)

// analyze runs the intraprocedural pass over one function body against
// the current summaries, merging what it learns into the function's
// summary; it reports whether the summary or the globals map grew.
// With report non-nil it additionally invokes the hook at tainted sink
// sites; reporting passes run after the engine is at fixed point and
// merge into a private copy of the summary, so they change nothing.
func (eng *TaintEngine) analyze(n *CGNode, report taintReport) bool {
	decl := n.Src.Decl
	if decl.Body == nil {
		return false
	}
	sum := eng.sums[n.Fn]
	if report != nil {
		// Reporting passes run concurrently, one package each, while
		// other packages' passes read this summary at their call sites:
		// merge into a private copy so the shared summaries stay
		// read-only once the engine is built.
		sum = sum.clone()
	}
	env := &taintEnv{
		eng:      eng,
		pkg:      n.Src.Pkg,
		decl:     decl,
		sum:      sum,
		obj:      map[types.Object]taintVal{},
		funcLit:  map[types.Object]*ast.FuncLit{},
		methVal:  map[types.Object]boundMethod{},
		litRes:   map[*ast.FuncLit][]taintVal{},
		litOf:    map[ast.Node]*ast.FuncLit{},
		conds:    map[ast.Node][]ast.Expr{},
		inputBit: map[types.Object]int{},
	}
	env.bindInputs(decl)
	env.mapLits(decl.Body)
	for pass := 0; pass < 32; pass++ {
		env.changed = false
		env.walk(decl.Body)
		if !env.changed {
			break
		}
	}
	if report != nil {
		env.report = report
		env.reported = map[token.Pos]bool{}
		env.walk(decl.Body)
		env.report = nil
	}
	return env.grew
}

// boundMethod is an ident bound to a method value: the method plus the
// receiver taint captured at the bind.
type boundMethod struct {
	fn   *types.Func
	recv taintVal
}

// taintEnv is the per-function analysis state.
type taintEnv struct {
	eng  *TaintEngine
	pkg  *Package
	decl *ast.FuncDecl
	sum  *taintSummary
	// obj is the flow-insensitive taint environment over local objects
	// (params, locals, named results — and, via captures, the literals'
	// view of the enclosing function's variables).
	obj map[types.Object]taintVal
	// funcLit / methVal record idents bound to function literals and
	// method values, so calls through them resolve.
	funcLit map[types.Object]*ast.FuncLit
	methVal map[types.Object]boundMethod
	// litRes accumulates the result taints of each nested literal.
	litRes map[*ast.FuncLit][]taintVal
	// litOf maps every return statement to its enclosing literal (nil
	// entries mean the outer function).
	litOf map[ast.Node]*ast.FuncLit
	// conds maps every return statement and call to the conditions of
	// the if and switch statements guarding it within its function or
	// literal.
	conds map[ast.Node][]ast.Expr
	// inputBit maps the receiver and parameter objects to their input
	// bits. Writes through these objects (and only these — a local
	// merely derived from an input does not alias the caller's memory)
	// are recorded in the summary's paramOut.
	inputBit map[types.Object]int

	changed bool // any environment/summary movement this pass
	grew    bool // summary or globals movement (the interprocedural signal)

	report   taintReport
	reported map[token.Pos]bool
}

// bindInputs seeds the environment: receiver and parameters carry
// their input bits.
func (env *taintEnv) bindInputs(decl *ast.FuncDecl) {
	bit := 0
	mark := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := env.pkg.Info.Defs[name]; obj != nil && bit < 32 {
				env.obj[obj] = taintVal{inputs: 1 << bit}
				env.inputBit[obj] = bit
			}
			bit++
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			if len(f.Names) == 0 {
				bit++
			}
			mark(f.Names)
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			if len(f.Names) == 0 {
				bit++
			}
			mark(f.Names)
		}
	}
}

// mapLits precomputes, for every return statement under body, the
// function literal it belongs to (nil for the outer function), and for
// every return and call, the branch conditions guarding it. A literal
// starts with no conditions: its body runs when it is called, not
// where it is written.
func (env *taintEnv) mapLits(body ast.Node) {
	var scan func(n ast.Node, lit *ast.FuncLit, conds []ast.Expr)
	// guarded scans the branch bodies under conds plus the statement's
	// own conditions; the full slice expression makes the append copy,
	// so sibling statements never share a backing array.
	guarded := func(lit *ast.FuncLit, conds, own []ast.Expr, bodies []ast.Stmt) {
		inner := append(conds[:len(conds):len(conds)], own...)
		for _, b := range bodies {
			scan(b, lit, inner)
		}
	}
	scan = func(n ast.Node, lit *ast.FuncLit, conds []ast.Expr) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch m := c.(type) {
			case *ast.FuncLit:
				scan(m.Body, m, nil)
				return false
			case *ast.ReturnStmt:
				env.litOf[m] = lit
				env.conds[m] = conds
			case *ast.CallExpr:
				if len(conds) > 0 {
					env.conds[m] = conds
				}
			case *ast.IfStmt:
				if m.Init != nil {
					scan(m.Init, lit, conds)
				}
				scan(m.Cond, lit, conds)
				bodies := []ast.Stmt{m.Body}
				if m.Else != nil {
					bodies = append(bodies, m.Else)
				}
				guarded(lit, conds, []ast.Expr{m.Cond}, bodies)
				return false
			case *ast.SwitchStmt:
				if m.Init != nil {
					scan(m.Init, lit, conds)
				}
				var own []ast.Expr
				if m.Tag != nil {
					scan(m.Tag, lit, conds)
					own = append(own, m.Tag)
				}
				var bodies []ast.Stmt
				for _, cl := range m.Body.List {
					cc := cl.(*ast.CaseClause)
					for _, e := range cc.List {
						scan(e, lit, conds)
						own = append(own, e)
					}
					bodies = append(bodies, cc.Body...)
				}
				guarded(lit, conds, own, bodies)
				return false
			}
			return true
		})
	}
	scan(body, nil, nil)
}

// control returns the source kinds of the branch conditions guarding
// n: a return or sink call they guard carries them.
func (env *taintEnv) control(n ast.Node) taintVal {
	var v taintVal
	for _, c := range env.conds[n] {
		v = v.union(env.eval(c))
	}
	return taintVal{kinds: v.kinds, wit: v.wit}
}

// join merges v into obj's taint.
func (env *taintEnv) join(obj types.Object, v taintVal) {
	if obj == nil || v.empty() {
		return
	}
	if vr, ok := obj.(*types.Var); ok && isPkgLevel(vr) {
		if env.eng.globalJoin(vr, v) {
			env.changed, env.grew = true, true
		}
		return
	}
	cur := env.obj[obj]
	merged := cur.union(v)
	if !merged.eq(cur) {
		env.obj[obj] = merged
		env.changed = true
	} else if merged.wit != cur.wit {
		env.obj[obj] = merged
	}
}

func isPkgLevel(v *types.Var) bool {
	return !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// lookup returns the current taint of obj (locals from the
// environment, package-level variables from the global map).
func (env *taintEnv) lookup(obj types.Object) taintVal {
	if vr, ok := obj.(*types.Var); ok && isPkgLevel(vr) {
		return env.eng.globalGet(vr)
	}
	return env.obj[obj]
}

// mergeResult joins v into the result slot i of the outer summary or
// the enclosing literal.
func (env *taintEnv) mergeResult(lit *ast.FuncLit, i int, v taintVal) {
	if lit != nil {
		res := env.litRes[lit]
		for len(res) <= i {
			res = append(res, taintVal{})
		}
		merged := res[i].union(v)
		if !merged.eq(res[i]) {
			env.changed = true
		}
		res[i] = merged
		env.litRes[lit] = res
		return
	}
	if i >= len(env.sum.results) {
		return
	}
	merged := env.sum.results[i].union(v)
	if !merged.eq(env.sum.results[i]) {
		env.changed, env.grew = true, true
	}
	env.sum.results[i] = merged
}

// walk performs one pass over the body: statements move taint between
// objects, summary slots and globals; expressions are evaluated on
// demand.
func (env *taintEnv) walk(body ast.Node) {
	ast.Inspect(body, func(c ast.Node) bool {
		switch n := c.(type) {
		case *ast.AssignStmt:
			env.assign(n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						env.join(env.pkg.Info.Defs[name], env.eval(vs.Values[i]))
					}
				}
			}
		case *ast.ReturnStmt:
			env.returnStmt(n)
		case *ast.SendStmt:
			// The channel object carries the taint of everything sent on
			// it; receives read it back. A channel that is itself an
			// input records the send in paramOut, so taint flows through
			// channel-typed parameters across calls.
			v := env.eval(n.Value)
			obj := rootObject(env.pkg, n.Chan)
			env.join(obj, v)
			env.storeThroughInput(obj, v)
		case *ast.RangeStmt:
			env.rangeStmt(n)
		case *ast.CallExpr:
			env.eval(n) // sources/sinks/sanitizers/side effects
		}
		return true
	})
}

// assign distributes RHS taint to LHS targets, records function-literal
// and method-value bindings, and routes writes through input-derived
// lvalues into paramOut.
func (env *taintEnv) assign(as *ast.AssignStmt) {
	// Multi-value form x, y := f().
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			per := env.evalCallMulti(call, len(as.Lhs))
			for i, lhs := range as.Lhs {
				env.assignTo(lhs, per[i])
			}
			return
		}
		// x, ok := m[k] / <-ch / v.(T): both values carry the base taint.
		v := env.eval(as.Rhs[0])
		for _, lhs := range as.Lhs {
			env.assignTo(lhs, v)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		rhs := as.Rhs[i]
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := env.pkg.Info.ObjectOf(id)
			switch r := ast.Unparen(rhs).(type) {
			case *ast.FuncLit:
				if obj != nil && env.funcLit[obj] != r {
					env.funcLit[obj] = r
					env.changed = true
				}
			case *ast.SelectorExpr:
				// Method value: f := x.M.
				if fn, ok := env.pkg.Info.Uses[r.Sel].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						recv := env.eval(r.X)
						cur, bound := env.methVal[obj]
						if !bound || cur.fn != fn.Origin() || !cur.recv.eq(recv) {
							env.methVal[obj] = boundMethod{fn.Origin(), cur.recv.union(recv)}
							env.changed = true
						}
					}
				}
			}
		}
		env.assignTo(lhs, env.eval(rhs))
	}
}

// assignTo joins v into the root object of lhs; writes through a
// receiver- or parameter-derived lvalue also feed the summary's
// paramOut slots.
func (env *taintEnv) assignTo(lhs ast.Expr, v taintVal) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	obj := rootObject(env.pkg, lhs)
	env.join(obj, v)
	env.storeThroughInput(obj, v)
}

// storeThroughInput records, in the summary, taint stored through an
// input object (receiver fields, map/pointer/channel parameters): the
// write is visible to the caller. Only direct input objects count — a
// local derived from an input (a key copied out of a parameter map, a
// slice appended from it) is the caller's data by value, not an alias
// of the caller's memory.
func (env *taintEnv) storeThroughInput(obj types.Object, v taintVal) {
	if obj == nil || !v.hasKinds() && v.inputs == 0 {
		return
	}
	bit, ok := env.inputBit[obj]
	if !ok || bit >= env.sum.inputs {
		return
	}
	merged := env.sum.paramOut[bit].union(v)
	if !merged.eq(env.sum.paramOut[bit]) {
		env.sum.paramOut[bit] = merged
		env.changed, env.grew = true, true
	}
	if bit == 0 && env.sum.hasRecv {
		merged := env.sum.recvOut.union(v)
		if !merged.eq(env.sum.recvOut) {
			env.sum.recvOut = merged
			env.changed, env.grew = true, true
		}
	}
}

// returnStmt merges returned expression taints, plus the source kinds
// of the branch conditions guarding the return, into the right result
// slots (outer summary or enclosing literal).
func (env *taintEnv) returnStmt(ret *ast.ReturnStmt) {
	lit := env.litOf[ret]
	ctrl := env.control(ret)
	if len(ret.Results) == 0 {
		// Bare return with named results: their current taints stand in.
		if lit == nil {
			if res := env.namedResults(); res != nil {
				for i, obj := range res {
					env.mergeResult(nil, i, env.lookup(obj).union(ctrl))
				}
			}
		}
		return
	}
	if len(ret.Results) == 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			want := 1
			if lit == nil {
				want = len(env.sum.results)
			}
			if want > 1 {
				per := env.evalCallMulti(call, want)
				for i, v := range per {
					env.mergeResult(lit, i, v.union(ctrl))
				}
				return
			}
		}
	}
	for i, e := range ret.Results {
		env.mergeResult(lit, i, env.eval(e).union(ctrl))
	}
}

// namedResults returns the outer function's named result objects, nil
// when results are unnamed.
func (env *taintEnv) namedResults() []types.Object {
	if env.decl.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range env.decl.Type.Results.List {
		for _, name := range f.Names {
			out = append(out, env.pkg.Info.Defs[name])
		}
	}
	if len(out) != len(env.sum.results) {
		return nil
	}
	return out
}

// rangeStmt moves container taint to the iteration variables and adds
// the order kinds to collections accumulated inside map/channel loops.
func (env *taintEnv) rangeStmt(rs *ast.RangeStmt) {
	base := env.eval(rs.X)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e == nil {
			continue
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			env.join(env.pkg.Info.ObjectOf(id), base)
		}
	}
	t := env.pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	var kind taintKind
	var desc string
	switch t.Underlying().(type) {
	case *types.Map:
		kind, desc = taintMapOrder, "a range over a map"
	case *types.Chan:
		kind, desc = taintChanOrder, "a range over a channel"
	default:
		return
	}
	ordered := kindVal(kind, rs.Pos(), fmt.Sprintf("%s (%s)", desc, env.relPos(rs.Pos())))
	// An accumulating write to a variable declared outside the loop
	// picks up the iteration order; a write indexed by the map key is
	// each iteration touching its own slot and stays clean.
	keyObj := func(e ast.Expr) bool {
		id, ok := rs.Key.(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		used, ok := ast.Unparen(e).(*ast.Ident)
		return ok && env.pkg.Info.ObjectOf(used) == env.pkg.Info.ObjectOf(id)
	}
	outer := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
	}
	mark := func(lhs ast.Expr) {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && kind == taintMapOrder && keyObj(ix.Index) {
			return
		}
		obj := rootObject(env.pkg, lhs)
		if outer(obj) {
			env.join(obj, ordered)
			env.storeThroughInput(obj, ordered)
		}
	}
	ast.Inspect(rs.Body, func(c ast.Node) bool {
		switch n := c.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.SendStmt:
			mark(n.Chan)
		}
		return true
	})
}

// relPos renders a position module-relative for witness strings.
func (env *taintEnv) relPos(pos token.Pos) string {
	p := env.eng.l.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", env.eng.l.RelPath(p.Filename), p.Line)
}

// eval computes the taint of one expression in the current
// environment.
func (env *taintEnv) eval(e ast.Expr) taintVal {
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		return env.lookup(env.pkg.Info.ObjectOf(n))
	case *ast.SelectorExpr:
		// Qualified package-level var, a field read, or a method value
		// in expression position; all reduce to the root's taint.
		return env.lookup(rootObject(env.pkg, n))
	case *ast.StarExpr:
		return env.eval(n.X)
	case *ast.UnaryExpr:
		return env.eval(n.X) // includes <-ch: the channel carries content taint
	case *ast.BinaryExpr:
		return env.eval(n.X).union(env.eval(n.Y))
	case *ast.IndexExpr:
		if tv, ok := env.pkg.Info.Types[n.X]; ok && tv.IsType() {
			return taintVal{} // generic instantiation, not an index
		}
		return env.eval(n.X).union(env.eval(n.Index))
	case *ast.IndexListExpr:
		return env.eval(n.X)
	case *ast.SliceExpr:
		return env.eval(n.X)
	case *ast.TypeAssertExpr:
		return env.eval(n.X)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = v.union(env.eval(kv.Value))
			} else {
				v = v.union(env.eval(el))
			}
		}
		return v
	case *ast.CallExpr:
		per := env.evalCallMulti(n, 1)
		return per[0]
	case *ast.FuncLit:
		return taintVal{}
	}
	return taintVal{}
}

// evalCallMulti evaluates a call and returns want result taints (all
// slots share the union when the callee's arity is unknown).
func (env *taintEnv) evalCallMulti(call *ast.CallExpr, want int) []taintVal {
	out := make([]taintVal, want)
	fill := func(v taintVal) []taintVal {
		for i := range out {
			out[i] = v
		}
		return out
	}
	fun := ast.Unparen(call.Fun)

	// Conversions pass taint through.
	if tv, ok := env.pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return fill(env.eval(call.Args[0]))
		}
		return out
	}

	argUnion := func(from int) taintVal {
		var v taintVal
		for i, a := range call.Args {
			if i >= from {
				v = v.union(env.eval(a))
			}
		}
		return v
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := env.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				v := argUnion(0)
				if len(call.Args) > 0 {
					env.assignTo(call.Args[0], v)
				}
				return fill(v)
			case "copy":
				if len(call.Args) == 2 {
					env.assignTo(call.Args[0], env.eval(call.Args[1]))
				}
				return out
			case "len", "cap", "make", "new", "delete", "clear":
				return out
			default:
				return fill(argUnion(0))
			}
		}
	}

	// Immediately-invoked or bound function literals.
	if lit := env.calleeLit(fun); lit != nil {
		env.bindLitArgs(lit, call)
		res := env.litRes[lit]
		var v taintVal
		for i := range out {
			if i < len(res) {
				out[i] = res[i]
			}
		}
		if len(res) > 0 && want == 1 {
			for _, r := range res {
				v = v.union(r)
			}
			out[0] = v
		}
		return out
	}

	// Bound method values.
	if id, ok := fun.(*ast.Ident); ok {
		if bm, ok := env.methVal[env.pkg.Info.ObjectOf(id)]; ok {
			return env.applySummaryCall(bm.fn, bm.recv, call, out)
		}
	}

	fn := calledFunc(env.pkg, call)
	if fn == nil {
		// Function value we cannot resolve: conservatively pass the
		// value's own taint plus the argument taints through.
		return fill(env.eval(fun).union(argUnion(0)))
	}

	// Source registry (internal/clock is the sanctioned wrapper).
	if fn.Pkg() != nil {
		key := [2]string{fn.Pkg().Path(), fn.Name()}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			if kind, ok := taintSources[key]; ok && !clockExempt(env.pkg) {
				desc := fmt.Sprintf("%s.%s (%s)", fn.Pkg().Name(), fn.Name(), env.relPos(call.Pos()))
				return fill(kindVal(kind, call.Pos(), desc))
			}
			if sortSanitizers[key] && len(call.Args) > 0 {
				env.sanitize(call.Args[0])
				return out
			}
		}
	}

	// Sink registry (reporting passes only).
	if env.report != nil {
		env.checkSink(fn, call)
	}

	var recv taintVal
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := env.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv = env.eval(sel.X)
		}
	}

	// Interface methods resolve CHA-style to every loaded
	// implementation; the union of their summaries applies.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := derefType(sig.Recv().Type()).Underlying().(*types.Interface); ok {
			impls := env.eng.g.implementersOf(iface, fn)
			applied := false
			var merged []taintVal
			for _, m := range impls {
				if env.eng.summaryOf(m) == nil {
					continue
				}
				res := env.applySummaryCall(m, recv, call, make([]taintVal, want))
				if merged == nil {
					merged = res
				} else {
					for i := range merged {
						merged[i] = merged[i].union(res[i])
					}
				}
				applied = true
			}
			if applied {
				copy(out, merged)
				return out
			}
			return fill(recv.union(argUnion(0)))
		}
	}

	if env.eng.summaryOf(fn) != nil {
		return env.applySummaryCall(fn, recv, call, out)
	}

	// Unknown external callee: taint in, taint out.
	return fill(recv.union(argUnion(0)))
}

// calleeLit resolves a call operator to a function literal: the
// literal itself (IIFE) or an ident bound to one.
func (env *taintEnv) calleeLit(fun ast.Expr) *ast.FuncLit {
	switch f := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		return f
	case *ast.Ident:
		if lit, ok := env.funcLit[env.pkg.Info.ObjectOf(f)]; ok {
			return lit
		}
	}
	return nil
}

// bindLitArgs joins the call's argument taints into the literal's
// parameter objects; the literal's body is walked as part of the
// enclosing function, so the flow completes on the next pass.
func (env *taintEnv) bindLitArgs(lit *ast.FuncLit, call *ast.CallExpr) {
	var params []types.Object
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				params = append(params, env.pkg.Info.Defs[name])
			}
		}
	}
	for i, a := range call.Args {
		if i < len(params) {
			env.join(params[i], env.eval(a))
		}
	}
}

// applySummaryCall maps a callee summary over the call site's
// receiver/argument taints: result slots get the callee's source kinds
// plus the inputs it forwards; paramOut/recvOut taints flow back into
// the argument and receiver objects.
func (env *taintEnv) applySummaryCall(fn *types.Func, recv taintVal, call *ast.CallExpr, out []taintVal) []taintVal {
	sum := env.eng.summaryOf(fn)
	if sum == nil {
		return out
	}
	inputs := make([]taintVal, 0, sum.inputs)
	if sum.hasRecv {
		inputs = append(inputs, recv)
	}
	// Variadic callees: every argument past the last declared parameter
	// lands in that parameter's slice, so their taints union into its
	// input bit instead of spilling past the summary.
	lastBit := -1
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() {
		lastBit = sig.Params().Len() - 1
		if sum.hasRecv {
			lastBit++
		}
	}
	for _, a := range call.Args {
		v := env.eval(a)
		if lastBit >= 0 && len(inputs) > lastBit {
			inputs[lastBit] = inputs[lastBit].union(v)
			continue
		}
		inputs = append(inputs, v)
	}
	apply := func(v taintVal) taintVal {
		mapped := taintVal{kinds: v.kinds, wit: v.wit}
		for bit := 0; bit < len(inputs) && bit < 32; bit++ {
			if v.inputs&(1<<bit) != 0 {
				mapped = mapped.union(inputs[bit])
			}
		}
		// The callee's kill applies after the input taints are mapped
		// in: "build from the argument, sort, return" erases the order
		// kinds the argument carried.
		mapped.kinds &^= v.kill
		mapped.kill = v.kill
		return mapped
	}
	for i := range out {
		if len(out) == 1 {
			// Expression context: the union of every result.
			for _, rv := range sum.results {
				out[0] = out[0].union(apply(rv))
			}
		} else if i < len(sum.results) {
			out[i] = apply(sum.results[i])
		}
	}
	// Callee writes into its inputs flow back to the caller's objects.
	argAt := func(bit int) ast.Expr {
		if sum.hasRecv {
			if bit == 0 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					return sel.X
				}
				return nil
			}
			bit--
		}
		if bit < len(call.Args) {
			return call.Args[bit]
		}
		return nil
	}
	for bit := 0; bit < sum.inputs && bit < 32; bit++ {
		if v := apply(sum.paramOut[bit]); !v.empty() {
			if target := argAt(bit); target != nil {
				obj := rootObject(env.pkg, target)
				env.join(obj, v)
				env.storeThroughInput(obj, v)
			}
		}
	}
	return out
}

// sanitize erases the order-dependence kinds from the root object of
// e: its iteration order has just been made deterministic.
func (env *taintEnv) sanitize(e ast.Expr) {
	obj := rootObject(env.pkg, e)
	if obj == nil {
		return
	}
	if vr, ok := obj.(*types.Var); ok && isPkgLevel(vr) {
		env.eng.globalSanitize(vr)
		return
	}
	cur, ok := env.obj[obj]
	if ok && (cur.kinds&orderKinds != 0 || cur.kill&orderKinds != orderKinds) {
		cur.kinds &^= orderKinds
		cur.kill |= orderKinds
		env.obj[obj] = cur
	}
}

// checkSink reports tainted arguments reaching registered sinks.
func (env *taintEnv) checkSink(fn *types.Func, call *ast.CallExpr) {
	if fn.Pkg() == nil {
		return
	}
	pkgPath := fn.Pkg().Path()
	var recvName string
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
			recvName = named.Obj().Name()
		}
	}
	for _, sink := range taintSinks {
		if sink.name != fn.Name() || sink.recv != recvName {
			continue
		}
		if pkgPath != sink.pkgPath && !strings.HasSuffix(pkgPath, "/"+sink.pkgPath) {
			continue
		}
		if env.reported[call.Pos()] {
			return
		}
		tainted := env.control(call)
		for i, a := range call.Args {
			if i < sink.skipArgs {
				continue
			}
			if v := env.eval(a); v.hasKinds() {
				tainted = tainted.union(v)
			}
		}
		if tainted.hasKinds() {
			env.reported[call.Pos()] = true
			env.report(call.Pos(), sink.desc, tainted)
		}
		return
	}
}

// calledFunc resolves a call operator to a declared function or
// method, nil for function values.
func calledFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	case *ast.IndexExpr:
		return genericFunc(pkg, f.X)
	case *ast.IndexListExpr:
		return genericFunc(pkg, f.X)
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

func genericFunc(pkg *Package, base ast.Expr) *types.Func {
	switch b := ast.Unparen(base).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[b].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[b.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// rootObject resolves the base identifier of an lvalue chain
// (x, x.f, x[i], *x, ...) to its object.
func rootObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pkg.Info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
