package lint

// detflow is the interprocedural determinism check: it runs the taint
// engine (taint.go) over the whole load and reports where a value
// derived from a nondeterministic source — a wall-clock read outside
// internal/clock, the global math/rand stream, the process
// environment, map-iteration order, or channel-completion order —
// reaches an output the repository promises is byte-stable:
//
//   - a registered sink call (error messages, CSV/JSON/formatted
//     output, the serve layer's cache keys); or
//   - a result of an exported function of a deterministic package (the
//     solver results the -j8 == -j1 contract covers).
//
// A value also reaches an output through a branch: a return or a sink
// call under an if or switch whose condition carries a source kind
// picks up that kind, so taking the first key of a map range and
// returning 1 when it equals "a" is a finding although the returned
// constant is clean. clockseam and rngseam flag the wall-clock and
// math/rand call sites themselves; detflow proves where their values
// go, along every interprocedural flow: a time.Now two calls upstream
// of a cache key is the same finding as one at the key site. Sink
// findings are reported at the sink call; exported-result findings at
// the function declaration — both in the package under analysis, so
// //lopc:allow suppressions stay local even when the source lives in
// another package.

import (
	"fmt"
	"go/token"
)

// DeterministicPackages are the package-path suffixes whose output the
// parallel run engine (internal/runner) promises is bit-identical for
// every worker count: detflow's exported-result contract and rngseam
// cover them.
var DeterministicPackages = []string{
	"internal/core",
	"internal/mva",
	"internal/exp",
	"internal/workload",
	"internal/machine",
	"internal/am",
	"internal/rng",
	"internal/stats",
	"internal/runner",
	// The telemetry layer instruments the deterministic solvers, so it
	// must be deterministic itself: wall times come from an injected
	// clock.Clock, never a direct time.Now.
	"internal/obs",
	// The parallel simulation core's whole contract is byte-identical
	// committed traces for every core and job count.
	"internal/psim",
}

// suffixScope matches a package path against a list of path suffixes
// ("internal/core" matches both "repro/internal/core" and a fixture's
// "fix/internal/core").
func suffixScope(suffixes []string) func(pkgPath string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if pkgPath == s || underPrefix(pkgPath, s) {
				return true
			}
			if n := len(pkgPath) - len(s); n > 0 && pkgPath[n-1] == '/' && pkgPath[n:] == s {
				return true
			}
		}
		return false
	}
}

// DetFlow reports nondeterministic sources flowing into byte-stable
// outputs, interprocedurally.
type DetFlow struct {
	// SinkScope limits sink-call findings to certain packages; nil
	// means the whole module (every registered sink is an output the
	// repo serializes).
	SinkScope func(pkgPath string) bool
	// ResultScope limits exported-result findings; nil means the
	// DeterministicPackages suffixes.
	ResultScope func(pkgPath string) bool
}

func (*DetFlow) Name() string { return "detflow" }
func (*DetFlow) Doc() string {
	return "nondeterministic source flows into a byte-stable output (interprocedural taint)"
}

func (a *DetFlow) Check(l *Loader, pkg *Package) []Diagnostic {
	sinkScope := a.SinkScope
	if sinkScope == nil {
		sinkScope = func(string) bool { return true }
	}
	resultScope := a.ResultScope
	if resultScope == nil {
		resultScope = suffixScope(DeterministicPackages)
	}
	if clockExempt(pkg) {
		return nil
	}
	eng := l.Taint()
	g := l.CallGraph()
	var out []Diagnostic
	for _, n := range g.Funcs {
		if n.Src.Pkg != pkg {
			continue
		}
		if sinkScope(pkg.Path) {
			out = append(out, a.sinkFindings(l, eng, n)...)
		}
		if resultScope(pkg.Path) {
			out = append(out, a.resultFindings(l, eng, n)...)
		}
	}
	return out
}

// sinkFindings re-runs the intraprocedural pass in reporting mode: the
// engine invokes the hook at every sink call with a kind-tainted
// argument.
func (a *DetFlow) sinkFindings(l *Loader, eng *TaintEngine, n *CGNode) []Diagnostic {
	var out []Diagnostic
	eng.analyze(n, func(pos token.Pos, sink string, v taintVal) {
		kind, wit := v.firstWitness()
		from := kind.String() + " value"
		if wit.desc != "" {
			from = fmt.Sprintf("value derived from %s %s", kind, wit.desc)
		}
		out = append(out, Diagnostic{
			Pos:   l.Fset.Position(pos),
			Check: a.Name(),
			Message: fmt.Sprintf("%s flows into %s; route it through the clock/rng seams or drop it from the output",
				from, sink),
		})
	})
	return out
}

// resultFindings reports exported functions of deterministic packages
// whose summary lets a source kind reach a result.
func (a *DetFlow) resultFindings(l *Loader, eng *TaintEngine, n *CGNode) []Diagnostic {
	if !n.Fn.Exported() {
		return nil
	}
	sum := eng.summaryOf(n.Fn)
	if sum == nil {
		return nil
	}
	var tainted taintVal
	for _, rv := range sum.results {
		if rv.hasKinds() {
			tainted = tainted.union(rv)
		}
	}
	if !tainted.hasKinds() {
		return nil
	}
	kind, wit := tainted.firstWitness()
	from := kind.String() + " source"
	if wit.desc != "" {
		from = fmt.Sprintf("%s %s", kind, wit.desc)
	}
	return []Diagnostic{{
		Pos:   l.Fset.Position(n.Src.Decl.Name.Pos()),
		Check: a.Name(),
		Message: fmt.Sprintf("exported %s returns a value derived from %s; deterministic-package results must be pure functions of their inputs",
			funcDisplayName(n.Fn), from),
	}}
}
