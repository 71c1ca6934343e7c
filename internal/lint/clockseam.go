package lint

// clockseam enforces the repository's time-access contract: every
// subsystem reads time through the clock.Clock interface (internal/
// clock), so all of it — progress throttling, admission deadlines,
// drain timeouts — runs under a clock.Fake in tests. A direct time.*
// call or a time.Timer/Ticker construction anywhere outside internal/
// clock is a finding, whether or not the package is on the
// deterministic list: the seam is what keeps new subsystems
// fake-clock testable, and a main package wiring clock.System through
// explicitly costs one line.
//
// time.Duration/time.Time values, constants and arithmetic remain
// legal everywhere — the contract covers reading or scheduling against
// the wall clock, not representing durations.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// wallClockFuncs are the time package functions that read or schedule
// against the wall clock; clockseam flags every call outside
// internal/clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

// ClockSeam flags direct wall-clock access outside internal/clock.
type ClockSeam struct {
	// Scope limits the check; nil means everywhere except
	// internal/clock.
	Scope func(pkgPath string) bool
}

func (*ClockSeam) Name() string { return "clockseam" }

func (a *ClockSeam) Check(l *Loader, pkg *Package) []Diagnostic {
	if a.Scope != nil {
		if !a.Scope(pkg.Path) {
			return nil
		}
	} else if clockExempt(pkg) {
		return nil
	}
	var out []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     l.Fset.Position(n.Pos()),
			Check:   a.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ref := funcRefOf(pkg, n.Sel)
				if ref != nil && ref.recv == nil && ref.pkgPath == "time" && wallClockFuncs[ref.name] {
					report(n, "time.%s bypasses the clock.Clock seam; thread a clock.Clock (clock.System in main) so the path stays fake-clock testable", ref.name)
				}
			case *ast.CompositeLit:
				if name, ok := timerType(pkg.Info.TypeOf(n)); ok {
					report(n, "constructing time.%s directly bypasses the clock.Clock seam; use the clock package's scheduling instead", name)
				}
			}
			return true
		})
	}
	return out
}

// clockExempt reports whether pkg is the sanctioned home for direct
// wall-clock calls.
func clockExempt(pkg *Package) bool {
	return pkg.Path == "internal/clock" || strings.HasSuffix(pkg.Path, "/internal/clock")
}

// timerType reports whether t is time.Timer or time.Ticker (possibly
// behind a pointer).
func timerType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "time" {
		return "", false
	}
	name := named.Obj().Name()
	if name == "Timer" || name == "Ticker" {
		return name, true
	}
	return "", false
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
