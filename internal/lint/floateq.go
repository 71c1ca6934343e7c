package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// FloatEq flags == and != between floating-point operands anywhere in
// the module. Exact float equality silently breaks under the AMVA
// solvers' iterative arithmetic (two mathematically equal quantities
// rarely compare equal after different rounding paths); compare with
// the tolerance helpers numeric.Close / numeric.Zero instead, or keep
// counts in integers. Constant-only comparisons (1.0 == 2.0) are
// compile-time and stay legal, as do integer comparisons like n == 0.
type FloatEq struct{}

func (*FloatEq) Name() string { return "floateq" }

func (a *FloatEq) Check(l *Loader, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pkg.Info.TypeOf(be.X)) && !isFloat(pkg.Info.TypeOf(be.Y)) {
				return true
			}
			// Both sides constant: evaluated at compile time, exact.
			if pkg.Info.Types[be.X].Value != nil && pkg.Info.Types[be.Y].Value != nil {
				return true
			}
			out = append(out, Diagnostic{
				Pos:   l.Fset.Position(be.OpPos),
				Check: a.Name(),
				Message: fmt.Sprintf("floating-point %s comparison; use numeric.Close/numeric.Zero (tolerance) or integer counts",
					be.Op),
			})
			return true
		})
	}
	return out
}
