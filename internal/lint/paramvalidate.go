package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// ParamValidate flags exported entry points — in the module's root
// package (the public facade, api.go) and internal/core — that can
// return an error but use a floating-point parameter before any
// NaN/Inf/negativity check. Model parameters (W, St, So, C²) flow
// straight into fixed-point arithmetic, where a NaN does not fail
// loudly: it spins the solver to its iteration cap and surfaces as a
// misleading non-convergence error (or worse, garbage output in a
// simulation). Entry points must reject bad parameters up front.
//
// A parameter counts as checked when, before any other use, it is
//
//   - tested with math.IsNaN / math.IsInf,
//   - compared in an if/switch condition (a negativity or range check),
//   - passed to a Validate/validate method or function, or
//   - forwarded verbatim to another function in the module that checks
//     the corresponding parameter (summaries are propagated through the
//     call graph to a fixed point, so facade wrappers that delegate to
//     a validating solver pass).
//
// Checked parameters are float scalars and structs with float fields.
// Functions that cannot report an error are exempt: pure closed forms
// follow math-package convention (NaN in, NaN out).
type ParamValidate struct {
	// ReportScope limits where findings are reported; nil means the
	// module root package and internal/core. Summaries are always
	// computed module-wide.
	ReportScope func(pkgPath string) bool

	// summaries builds summary once, on first use: the parallel driver
	// runs Check on several packages at once.
	summaries sync.Once
	summary   map[*types.Func]map[int]*pvParam
}

func (*ParamValidate) Name() string { return "paramvalidate" }
func (*ParamValidate) Doc() string {
	return "exported entry points must reject NaN/Inf/negative float parameters before using them"
}

type pvStatus int

const (
	pvUnknown pvStatus = iota
	pvOK
	pvBad
)

type pvDep struct {
	callee *types.Func
	param  int
}

type pvParam struct {
	status pvStatus
	deps   []pvDep
	reason string
	pos    token.Pos
}

func (a *ParamValidate) Check(l *Loader, pkg *Package) []Diagnostic {
	scope := a.ReportScope
	if scope == nil {
		scope = func(p string) bool {
			return p == l.ModulePath || suffixScope([]string{"internal/core"})(p)
		}
	}
	a.summaries.Do(func() { a.buildSummaries(l) })
	if !scope(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !returnsError(obj) {
				continue
			}
			sig := obj.Type().(*types.Signature)
			for idx, pv := range a.summary[obj] {
				if pv.status != pvBad {
					continue
				}
				param := sig.Params().At(idx)
				pos := pv.pos
				if !pos.IsValid() {
					pos = param.Pos()
				}
				out = append(out, Diagnostic{
					Pos:   l.Fset.Position(pos),
					Check: a.Name(),
					Message: fmt.Sprintf("exported %s uses float parameter %q before a NaN/Inf/negativity check%s",
						fd.Name.Name, param.Name(), pv.reason),
				})
			}
		}
	}
	return out
}

func returnsError(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// relevantParam reports whether a parameter type carries model floats:
// a float scalar or a (pointer to) struct with a float field.
func relevantParam(t types.Type) bool {
	if isFloat(t) {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isFloat(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// buildSummaries analyzes every function in the module once and
// resolves forwarding dependencies to a fixed point.
func (a *ParamValidate) buildSummaries(l *Loader) {
	a.summary = map[*types.Func]map[int]*pvParam{}
	for obj, src := range l.funcs {
		if src.Decl.Body == nil {
			continue
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok {
			continue
		}
		params := sig.Params()
		var entry map[int]*pvParam
		for i := 0; i < params.Len(); i++ {
			p := params.At(i)
			if p.Name() == "" || p.Name() == "_" || !relevantParam(p.Type()) {
				continue
			}
			if entry == nil {
				entry = map[int]*pvParam{}
			}
			entry[i] = a.analyzeParam(l, src, p)
		}
		if entry != nil {
			a.summary[obj] = entry
		}
	}
	// Propagate forwarding deps until stable; anything unresolved
	// (cycles) is conservatively bad.
	for changed := true; changed; {
		changed = false
		for _, entry := range a.summary {
			for _, pv := range entry {
				if pv.status != pvUnknown {
					continue
				}
				resolved, ok, reason := a.resolveDeps(pv)
				if resolved {
					if ok {
						pv.status = pvOK
					} else {
						pv.status = pvBad
						pv.reason = reason
					}
					changed = true
				}
			}
		}
	}
	for _, entry := range a.summary {
		for _, pv := range entry {
			if pv.status == pvUnknown {
				pv.status = pvBad
				pv.reason = " (validation cannot be proven through a call cycle)"
			}
		}
	}
}

func (a *ParamValidate) resolveDeps(pv *pvParam) (resolved, ok bool, reason string) {
	allOK := true
	for _, d := range pv.deps {
		dep := a.summary[d.callee][d.param]
		if dep == nil {
			return true, false, fmt.Sprintf(" (forwarded to %s, which does not check it)", d.callee.Name())
		}
		switch dep.status {
		case pvBad:
			return true, false, fmt.Sprintf(" (forwarded to %s, which does not check it)", d.callee.Name())
		case pvUnknown:
			allOK = false
		}
	}
	if allOK {
		return true, true, ""
	}
	return false, false, ""
}

// analyzeParam classifies the first use of param inside the function
// body: guard, verbatim forward, or unchecked use.
func (a *ParamValidate) analyzeParam(l *Loader, src *FuncSource, param *types.Var) *pvParam {
	info := src.Pkg.Info
	path := firstUsePath(info, src.Decl.Body, param)
	if path == nil {
		return &pvParam{status: pvOK} // never used: nothing to misuse
	}
	usePos := path[len(path)-1].Pos()

	// A use captured by a closure runs at an unknown time relative to
	// any checks; treat it as unchecked.
	inClosure := false
	for _, n := range path {
		if _, ok := n.(*ast.FuncLit); ok {
			inClosure = true
		}
	}
	if !inClosure && isGuardPath(src.Pkg, path, param) {
		return &pvParam{status: pvOK}
	}
	if !inClosure {
		if deps, ok := forwardingDeps(l, src.Pkg, path, param); ok {
			return &pvParam{status: pvUnknown, deps: deps, pos: usePos}
		}
	}
	return &pvParam{status: pvBad, pos: usePos}
}

// firstUsePath returns the node path from body down to the first
// (source-order) identifier resolving to param, or nil if unused.
func firstUsePath(info *types.Info, body *ast.BlockStmt, param *types.Var) []ast.Node {
	var stack []ast.Node
	var found []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == param {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return found
}

// isGuardPath reports whether the first use of param happens inside a
// validation context: an IsNaN/IsInf call, a comparison inside an
// if/switch condition, or a Validate call.
func isGuardPath(pkg *Package, path []ast.Node, param *types.Var) bool {
	inCond := false
	for i, n := range path {
		var next ast.Node
		if i+1 < len(path) {
			next = path[i+1]
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if next != nil && n.Cond == next {
				inCond = true
			}
		case *ast.SwitchStmt:
			if next != nil && n.Tag == next {
				inCond = true
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if next != nil && e == next {
					inCond = true
				}
			}
		case *ast.CallExpr:
			if isPkgCall(pkg, n, "math", "IsNaN") || isPkgCall(pkg, n, "math", "IsInf") {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				strings.EqualFold(sel.Sel.Name, "validate") && mentionsObject(pkg, sel.X, param) {
				return true
			}
		case *ast.BinaryExpr:
			if inCond && (isRelational(n.Op) || n.Op == token.EQL || n.Op == token.NEQ) {
				return true
			}
		}
	}
	return false
}

func mentionsObject(pkg *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// forwardingDeps checks whether every use of param inside the statement
// containing its first use is a verbatim argument to a function
// declared in this module, and returns the (callee, param index)
// dependencies if so.
func forwardingDeps(l *Loader, pkg *Package, path []ast.Node, param *types.Var) ([]pvDep, bool) {
	// Nearest enclosing statement of the first use.
	var stmt ast.Stmt
	for i := len(path) - 1; i >= 0; i-- {
		if s, ok := path[i].(ast.Stmt); ok {
			stmt = s
			break
		}
	}
	if stmt == nil {
		return nil, false
	}
	var deps []pvDep
	ok := true
	var stack []ast.Node
	ast.Inspect(stmt, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, isIdent := n.(*ast.Ident)
		if !isIdent || pkg.Info.Uses[id] != param {
			return true
		}
		// The ident's parent must be a call using it as a bare argument.
		if len(stack) < 2 {
			ok = false
			return false
		}
		call, isCall := stack[len(stack)-2].(*ast.CallExpr)
		if !isCall {
			ok = false
			return false
		}
		argIdx := -1
		for i, arg := range call.Args {
			if ast.Unparen(arg) == ast.Node(id) {
				argIdx = i
			}
		}
		if argIdx < 0 {
			ok = false
			return false
		}
		ref := calleeOf(pkg, call)
		if ref == nil || l.funcs[ref.obj] == nil {
			ok = false
			return false
		}
		sig, sigOK := ref.obj.Type().(*types.Signature)
		if !sigOK || argIdx >= sig.Params().Len() || (sig.Variadic() && argIdx >= sig.Params().Len()-1) {
			ok = false
			return false
		}
		deps = append(deps, pvDep{callee: ref.obj, param: argIdx})
		return true
	})
	if !ok || len(deps) == 0 {
		return nil, false
	}
	return deps, true
}
