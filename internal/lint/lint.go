// Package lint is the repository's static-analysis suite: a set of
// AST- and type-based analyzers enforcing the invariants the LoPC
// reproduction's correctness rests on but no compiler checks.
//
// The suite machine-checks three families of invariants:
//
//   - Determinism seams. The parallel run engine (internal/runner)
//     guarantees byte-identical output for every worker count only if
//     the packages it fans out never consult wall clocks (clockseam)
//     or the global math/rand source (rngseam).
//   - Float safety. The AMVA fixed-point solvers (Eqs. 5.1–5.10,
//     A.1–A.10) compare iterates with tolerances, never == (floateq).
//   - Error hygiene. No error return is silently dropped (errdiscard).
//
// What a test run shows better is left to tests: the facade's
// entry-point table rejects NaN/Inf/negative parameters at run time;
// goroutine-count assertions at every spawn site catch a goroutine
// that outlives its call; every byte-stable output has a row that
// renders it twenty times in one process and requires identical bytes
// (internal/detguard), which is what catches a map-order leak; the
// numeric kernels' rows pin their iteration caps and NaN handling; and
// lock discipline is checked where each mutex lives: a released row
// drives every method of the lock's owner, early returns and recovered
// panics included, and then requires the lock to be free, and a
// re-entry row calls back into the owner from each callback it
// invokes and requires the call to return (internal/leakguard).
//
// Analyzers use only the standard library (go/ast, go/parser, go/types,
// go/importer) so the suite builds offline. Findings can be suppressed
// per line with a justified
//
//	//lopc:allow <check> <reason>
//
// comment on the flagged line or the line above it. An allow must name
// a known check and give a reason, and one that suppresses nothing is
// stale. TestModuleLint runs the whole suite over every module package
// and fails on any finding, malformed allow or stale allow, so
// `go test ./...` enforces all three.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check is the analyzer name (e.g. "floateq").
	Check string
	// Message explains the finding and names the fix.
	Message string
}

// String renders the finding in the suite's canonical
// file:line:check: message format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%s: %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Analyzer is one check of the suite.
type Analyzer interface {
	// Name is the check name used in diagnostics and //lopc:allow
	// comments.
	Name() string
	// Check analyzes one package; the Loader supplies the file set.
	Check(l *Loader, pkg *Package) []Diagnostic
}

// All returns the full suite in reporting order: the numerical and
// hygiene checks first, then the clock and rng seams.
func All() []Analyzer {
	return []Analyzer{
		&FloatEq{},
		&ErrDiscard{},
		&ClockSeam{},
		&RngSeam{},
	}
}

// Run executes the analyzers over the packages and audits the
// //lopc:allow comments. It returns the findings no allow suppresses,
// plus an "allow" finding for every allow that names no check, an
// unknown check or no reason; and, second, the stale allows: those
// whose check ran but which suppressed nothing, dead suppressions that
// would silently swallow a future regression. An allow for a check
// that did not run is never stale (a floateq allow is not stale just
// because only rngseam ran). Both lists are sorted by position.
func Run(l *Loader, pkgs []*Package, analyzers []Analyzer) (diags, stale []Diagnostic) {
	known, ran := suiteMaps(analyzers)
	for _, pkg := range pkgs {
		d, s := analyzePackage(l, pkg, analyzers, known, ran)
		diags = append(diags, d...)
		stale = append(stale, s...)
	}
	sortDiagnostics(diags)
	sortDiagnostics(stale)
	return diags, stale
}

// sortDiagnostics orders diagnostics by file, line, check and message.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// suiteMaps builds the known/ran check-name sets for one run. Allow
// comments are validated against the full suite, not just the analyzers
// of this run: running a subset must not turn every other check's
// suppressions into "unknown check" findings. Stale detection
// conversely uses only the checks that ran.
func suiteMaps(analyzers []Analyzer) (known, ran map[string]bool) {
	known = make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name()] = true
	}
	ran = make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
		ran[a.Name()] = true
	}
	return known, ran
}

// analyzePackage runs the analyzers over one package, applying and
// auditing that package's suppressions: it returns the surviving
// diagnostics and the package's stale allows. Allow comments only
// suppress findings positioned in their own package's files.
func analyzePackage(l *Loader, pkg *Package, analyzers []Analyzer, known, ran map[string]bool) ([]Diagnostic, []Diagnostic) {
	used := map[allowKey]bool{}
	allows := collectAllows(l.Fset, pkg)
	diags := checkAllows(allows, known)
	for _, a := range analyzers {
		for _, d := range a.Check(l, pkg) {
			if !allows.cover(d.Pos.Filename, d.Pos.Line, d.Check, used) {
				diags = append(diags, d)
			}
		}
	}
	var stale []Diagnostic
	for file, lines := range allows {
		for line, as := range lines {
			for _, a := range as {
				if ran[a.check] && !used[allowKey{file, line, a.check}] {
					stale = append(stale, Diagnostic{Pos: a.pos, Check: "allow",
						Message: fmt.Sprintf("lopc:allow %s suppresses nothing; delete it", a.check)})
				}
			}
		}
	}
	return diags, stale
}

// allowDirective is the comment prefix of a suppression.
const allowDirective = "lopc:allow"

// allow is one parsed //lopc:allow comment.
type allow struct {
	pos    token.Position
	check  string
	reason string
}

// allowSet indexes suppressions by file and line. An allow on line L
// covers findings on L (trailing comment) and L+1 (comment above).
type allowSet map[string]map[int][]allow

// allowKey identifies one //lopc:allow comment for usage tracking
// (file and line of the comment itself, plus the suppressed check).
type allowKey struct {
	file  string
	line  int
	check string
}

// cover reports whether an allow suppresses a finding at (file, line,
// check) and marks every matching allow comment in used, so stale ones
// can be reported.
func (s allowSet) cover(file string, line int, check string, used map[allowKey]bool) bool {
	hit := false
	for _, l := range []int{line, line - 1} {
		for _, a := range s[file][l] {
			if a.check == check {
				hit = true
				used[allowKey{file, l, check}] = true
			}
		}
	}
	return hit
}

// collectAllows parses every //lopc:allow comment in the package.
func collectAllows(fset *token.FileSet, pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				pos := fset.Position(c.Pos())
				check, reason, _ := strings.Cut(rest, " ")
				a := allow{pos: pos, check: check, reason: strings.TrimSpace(reason)}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int][]allow{}
				}
				set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line], a)
			}
		}
	}
	return set
}

// checkAllows validates the suppression comments themselves: every
// allow must name a known check and give a reason, so suppressions stay
// auditable.
func checkAllows(set allowSet, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range set {
		for _, as := range lines {
			for _, a := range as {
				switch {
				case a.check == "":
					out = append(out, Diagnostic{Pos: a.pos, Check: "allow",
						Message: "lopc:allow comment names no check"})
				case !known[a.check]:
					out = append(out, Diagnostic{Pos: a.pos, Check: "allow",
						Message: fmt.Sprintf("lopc:allow names unknown check %q", a.check)})
				case a.reason == "":
					out = append(out, Diagnostic{Pos: a.pos, Check: "allow",
						Message: fmt.Sprintf("lopc:allow %s has no reason; justify the suppression", a.check)})
				}
			}
		}
	}
	return out
}

// underPrefix reports whether p equals prefix or lies under it as a
// path (so "internal/core" does not match "internal/corebis").
func underPrefix(p, prefix string) bool {
	p, prefix = path.Clean(p), path.Clean(prefix)
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}

// --- shared AST/type helpers used by several analyzers ---

// calleeOf resolves the called function of e's Fun, unwrapping
// selectors and parenthesized expressions; nil when the callee is not a
// declared function (e.g. a conversion or a function-typed variable).
func calleeOf(pkg *Package, call *ast.CallExpr) *funcRef {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		return funcRefOf(pkg, f)
	case *ast.SelectorExpr:
		return funcRefOf(pkg, f.Sel)
	}
	return nil
}
