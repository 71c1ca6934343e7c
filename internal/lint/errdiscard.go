package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrDiscard flags calls whose error result is silently dropped — a
// bare expression statement or deferred call returning an error that
// nobody reads. Silent drops hide exactly the failures the rest of the
// suite exists to surface (non-convergence, infeasible parameters, I/O
// truncating experiment output). Handle the error, or assign it to _
// explicitly to record the decision.
//
// The fmt print family is exempt (its errors fire only on
// already-broken writers, and flagging every progress line would bury
// real findings), as are strings.Builder and bytes.Buffer methods,
// which are documented never to fail. Test files are never loaded, so
// the check applies only outside tests.
type ErrDiscard struct{}

func (*ErrDiscard) Name() string { return "errdiscard" }

func (a *ErrDiscard) Check(l *Loader, pkg *Package) []Diagnostic {
	var out []Diagnostic
	check := func(call *ast.CallExpr, deferred bool) {
		if call == nil || !returnsErrorValue(pkg, call) || exemptCallee(pkg, call) {
			return
		}
		verb := "call to"
		if deferred {
			verb = "deferred call to"
		}
		out = append(out, Diagnostic{
			Pos:   l.Fset.Position(call.Pos()),
			Check: a.Name(),
			Message: fmt.Sprintf("%s %s discards its error result; handle it or assign it to _",
				verb, calleeName(pkg, call)),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, false)
				}
			case *ast.DeferStmt:
				check(n.Call, true)
			case *ast.GoStmt:
				check(n.Call, false)
			}
			return true
		})
	}
	return out
}

// returnsErrorValue reports whether any result of the call is an error.
func returnsErrorValue(pkg *Package, call *ast.CallExpr) bool {
	t := pkg.Info.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// exemptCallee exempts the fmt print family and the never-failing
// buffer writers.
func exemptCallee(pkg *Package, call *ast.CallExpr) bool {
	ref := calleeOf(pkg, call)
	if ref == nil {
		return false
	}
	if ref.pkgPath == "fmt" {
		return true
	}
	if ref.recv != nil {
		recv := ref.recv
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				full := obj.Pkg().Path() + "." + obj.Name()
				if full == "strings.Builder" || full == "bytes.Buffer" {
					return true
				}
			}
		}
	}
	return false
}

func calleeName(pkg *Package, call *ast.CallExpr) string {
	ref := calleeOf(pkg, call)
	if ref == nil {
		return "function"
	}
	if ref.recv != nil {
		return fmt.Sprintf("(%s).%s", ref.recv.String(), ref.name)
	}
	if ref.pkgPath != "" {
		return ref.pkgPath + "." + ref.name
	}
	return ref.name
}
