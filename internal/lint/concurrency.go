package lint

// Shared type- and AST-level helpers for the lock analyzers
// (lockbalance, deadlock): recognizing sync.Mutex/RWMutex/WaitGroup
// method calls and building stable per-object state keys for the
// dataflow facts.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// syncCall is one recognized call to a sync.Mutex, sync.RWMutex or
// sync.WaitGroup method.
type syncCall struct {
	// recvKey is the stable state key of the receiver lvalue ("mu",
	// "c.mu", ...); empty when the receiver is not a trackable lvalue.
	recvKey string
	// recvObj is the root object of the receiver chain (the variable
	// holding, or pointing to, the struct that owns the lock).
	recvObj types.Object
	// typ is "Mutex", "RWMutex" or "WaitGroup"; method the method name.
	typ, method string
	call        *ast.CallExpr
}

// syncCallOf recognizes n (a statement or expression) as a direct call
// to a sync primitive's method, unwrapping ExprStmt and DeferStmt.
func syncCallOf(pkg *Package, n ast.Node) *syncCall {
	var call *ast.CallExpr
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(n.X).(*ast.CallExpr)
	case *ast.DeferStmt:
		call = n.Call
	case *ast.GoStmt:
		call = n.Call
	case *ast.CallExpr:
		call = n
	case ast.Expr:
		call, _ = ast.Unparen(n).(*ast.CallExpr)
	}
	if call == nil {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recvT := derefType(sig.Recv().Type())
	var typ string
	if named, ok := recvT.(*types.Named); ok && obj.Pkg().Path() == "sync" {
		switch named.Obj().Name() {
		case "Mutex", "RWMutex", "WaitGroup":
			typ = named.Obj().Name()
		}
	}
	if typ == "" {
		// The receiver may be interface-typed (sync.Locker, or a lock
		// interface of the module) with the mutex behind it reached
		// through the interface: resolve the concrete method set via the
		// call graph's CHA index.
		typ = lockIfaceType(pkg, recvT, obj)
	}
	if typ == "" {
		return nil
	}
	key, root := exprKey(pkg, sel.X)
	return &syncCall{recvKey: key, recvObj: root, typ: typ, method: obj.Name(), call: call}
}

// lockIfaceType resolves a Lock/Unlock-family call through an
// interface-typed receiver: if every loaded concrete implementation of
// the interface method is a plain sync.Mutex/sync.RWMutex method
// (possibly promoted through embedding), the call is that lock's op
// and the analyzers track it like a direct one. A single non-lock
// implementation makes the call untrackable (conservatively ignored).
func lockIfaceType(pkg *Package, recvT types.Type, method *types.Func) string {
	switch method.Name() {
	case "Lock", "Unlock", "TryLock", "RLock", "RUnlock", "TryRLock":
	default:
		return ""
	}
	iface, ok := recvT.Underlying().(*types.Interface)
	if !ok || pkg.loader == nil {
		return ""
	}
	g := pkg.loader.CallGraph()
	impls := g.implementersOf(iface, method)
	if len(impls) == 0 {
		return ""
	}
	typ := "Mutex"
	for _, m := range impls {
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return ""
		}
		named, ok := derefType(sig.Recv().Type()).(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
			return ""
		}
		switch named.Obj().Name() {
		case "Mutex":
		case "RWMutex":
			typ = "RWMutex"
		default:
			return ""
		}
	}
	return typ
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// exprKey builds a stable string key for an lvalue chain — x, x.f,
// (*x).f.g — rooted at a named object, together with that root object.
// Chains involving calls, non-identifier indexes, or unresolvable roots
// return "" (untrackable, conservatively ignored).
func exprKey(pkg *Package, e ast.Expr) (string, types.Object) {
	var parts []string
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pkg.Info.ObjectOf(v)
			if obj == nil {
				return "", nil
			}
			// Position disambiguates shadowed names.
			parts = append(parts, fmt.Sprintf("%s@%d", v.Name, obj.Pos()))
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, "."), obj
		case *ast.SelectorExpr:
			parts = append(parts, v.Sel.Name)
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			// Only constant indexes are stable enough to track.
			if lit, ok := ast.Unparen(v.Index).(*ast.BasicLit); ok {
				parts = append(parts, "["+lit.Value+"]")
				e = v.X
				continue
			}
			return "", nil
		default:
			return "", nil
		}
	}
}
