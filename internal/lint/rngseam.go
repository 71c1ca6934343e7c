package lint

// rngseam enforces the randomness contract behind the parallel
// engine's substream discipline: inside the deterministic packages,
// every random draw derives from internal/rng — the splittable
// xoshiro/SplitMix64 streams whose SeedAt(root, index) derivation
// makes task results pure functions of (seed, index). Two patterns
// break the contract and are findings:
//
//   - any use of math/rand or math/rand/v2, even seeded: the repo's
//     replications and workloads must share one substream scheme, and
//     a rand.New(rand.NewSource(seed)) stream cannot be split with
//     SeedAt;
//   - seeding an internal/rng stream or source from a constant
//     (rng.New(42)): a hard-coded seed makes every replication
//     identical and silently defeats the root-seed plumbing. Seeds
//     must arrive from configuration or a SeedAt derivation.

import (
	"fmt"
	"go/ast"
)

// DeterministicPackages are the package-path suffixes whose output the
// parallel run engine (internal/runner) promises is bit-identical for
// every worker count. rngseam covers them; their outputs' run-twice
// rows (internal/detguard) check the promise itself.
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

// RngSeam flags math/rand use and constant-seeded internal/rng streams
// in the deterministic packages.
type RngSeam struct {
	// Scope limits the check to certain packages; nil means the
	// DeterministicPackages suffixes.
	Scope func(pkgPath string) bool
}

func (*RngSeam) Name() string { return "rngseam" }
func (*RngSeam) Doc() string {
	return "randomness outside the rng.SeedAt substream scheme (math/rand use, hard-coded seeds)"
}

// rngConstructors are the internal/rng entry points that take a root
// seed; a constant argument defeats substream derivation.
var rngConstructors = map[string]bool{"New": true, "NewSource": true}

func (a *RngSeam) Check(l *Loader, pkg *Package) []Diagnostic {
	scope := a.Scope
	if scope == nil {
		scope = suffixScope(DeterministicPackages)
	}
	if !scope(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ref := funcRefOf(pkg, n.Sel)
				if ref == nil || ref.recv != nil {
					return true
				}
				if ref.pkgPath == "math/rand" || ref.pkgPath == "math/rand/v2" {
					out = append(out, Diagnostic{
						Pos:   l.Fset.Position(n.Pos()),
						Check: a.Name(),
						Message: fmt.Sprintf("%s.%s is outside the rng.SeedAt substream scheme; draw from an internal/rng stream instead",
							ref.pkgPath, ref.name),
					})
				}
			case *ast.CallExpr:
				ref := calleeOf(pkg, n)
				if ref != nil && ref.recv == nil && isRngPath(ref.pkgPath) && rngConstructors[ref.name] {
					if d, ok := a.checkSeedArg(l, pkg, n, ref.name); ok {
						out = append(out, d)
					}
				}
			}
			return true
		})
	}
	return out
}

// isRngPath matches the module's rng package (and fixture copies) by
// path suffix.
var isRngPath = suffixScope([]string{"internal/rng"})

// checkSeedArg flags rng.New / rng.NewSource calls whose seed argument
// is a compile-time constant.
func (a *RngSeam) checkSeedArg(l *Loader, pkg *Package, call *ast.CallExpr, name string) (Diagnostic, bool) {
	if len(call.Args) != 1 {
		return Diagnostic{}, false
	}
	if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil {
		return Diagnostic{
			Pos:   l.Fset.Position(call.Pos()),
			Check: a.Name(),
			Message: fmt.Sprintf("rng.%s seeded with the constant %s; derive the seed from configuration or rng.SeedAt so replications stay independent",
				name, tv.Value.String()),
		}, true
	}
	return Diagnostic{}, false
}
