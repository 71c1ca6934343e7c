// Package lint is the repository's static-analysis suite: a set of
// AST- and type-based analyzers enforcing the invariants the LoPC
// reproduction's correctness rests on but no compiler checks.
//
// The suite machine-checks four families of invariants:
//
//   - Determinism seams. The parallel run engine (internal/runner)
//     guarantees byte-identical output for every worker count only if
//     the packages it fans out never consult wall clocks (clockseam)
//     or the global math/rand source (rngseam).
//   - Float safety. The AMVA fixed-point solvers (Eqs. 5.1–5.10,
//     A.1–A.10) compare iterates with tolerances, never == (floateq).
//   - Error hygiene. No error return is silently dropped (errdiscard).
//   - Lock discipline. Every Lock is released on every path
//     (lockbalance) and the module acquires its locks in one global
//     order (deadlock).
//
// What a test run shows better is left to tests: the facade's
// entry-point table rejects NaN/Inf/negative parameters at run time;
// goroutine-count assertions at every spawn site catch a goroutine
// that outlives its call; every byte-stable output has a row that
// renders it twenty times in one process and requires identical bytes
// (internal/detguard), which is what catches a map-order leak; and the
// numeric kernels' rows pin their iteration caps and NaN handling.
//
// Analyzers use only the standard library (go/ast, go/parser, go/types,
// go/importer) so the suite builds offline. Findings can be suppressed
// per line with a justified
//
//	//lopc:allow <check> <reason>
//
// comment on the flagged line or the line above it. Every suppression
// is auditable: lopc-lint -report-allows lists them and -strict-allows
// fails on ones that suppress nothing.
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
	// Doc is a one-line description.
	Doc() string
	// Check analyzes one package. The Loader gives access to every
	// loaded package for interprocedural checks.
	Check(l *Loader, pkg *Package) []Diagnostic
}

// All returns the full suite in reporting order: the numerical and
// hygiene checks first, then the lock checks (CFG/dataflow-based
// lockbalance, interprocedural deadlock), then the clock and rng
// seams.
func All() []Analyzer {
	return []Analyzer{
		&FloatEq{},
		&ErrDiscard{},
		&LockBalance{},
		&Deadlock{},
		&ClockSeam{},
		&RngSeam{},
	}
}

// ByNames filters All() down to the named checks, preserving suite
// order; unknown names are an error.
func ByNames(names []string) ([]Analyzer, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []Analyzer
	for _, a := range All() {
		if want[a.Name()] {
			out = append(out, a)
			delete(want, a.Name())
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("lint: unknown check(s): %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// Run executes the analyzers over the packages, drops findings
// suppressed by //lopc:allow comments, verifies the suppression
// comments themselves (unknown check names and missing reasons are
// findings), and returns the remainder sorted by position.
func Run(l *Loader, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	diags, _ := RunWithStale(l, pkgs, analyzers)
	return diags
}

// RunWithStale is Run plus stale-suppression detection: the second
// result lists every //lopc:allow comment whose check ran in this
// invocation but which suppressed no finding — dead suppressions that
// would silently swallow a future regression. Allows for checks not in
// this run are never reported stale (a deadlock allow is not stale
// just because only floateq ran).
func RunWithStale(l *Loader, pkgs []*Package, analyzers []Analyzer) ([]Diagnostic, []AllowRecord) {
	known, ran := suiteMaps(analyzers)
	results := make([]pkgResult, len(pkgs))
	for i, pkg := range pkgs {
		results[i] = analyzePackage(l, pkg, analyzers, known, ran)
	}
	return mergeResults(results)
}

// suiteMaps builds the known/ran check-name sets for one invocation.
// Allow comments are validated against the full suite, not just the
// analyzers selected for this run: running a -checks subset must not
// turn every other check's suppressions into "unknown check" findings.
// Stale detection conversely uses only the checks that ran.
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

// pkgResult is the analysis output of one package: its surviving
// diagnostics and its stale suppressions. Allow comments only suppress
// findings positioned in their own package's files, so the result is
// self-contained and packages can be analyzed in any order — the basis
// of RunParallel's byte-identical merge.
type pkgResult struct {
	diags []Diagnostic
	stale []AllowRecord
}

// analyzePackage runs the analyzers over one package, applying and
// auditing that package's suppressions.
func analyzePackage(l *Loader, pkg *Package, analyzers []Analyzer, known, ran map[string]bool) pkgResult {
	used := map[allowKey]bool{}
	allows := collectAllows(l.Fset, pkg)
	res := pkgResult{diags: checkAllows(allows, known)}
	for _, a := range analyzers {
		for _, d := range a.Check(l, pkg) {
			if !allows.cover(d.Pos.Filename, d.Pos.Line, d.Check, used) {
				res.diags = append(res.diags, d)
			}
		}
	}
	for file, lines := range allows {
		for line, as := range lines {
			for _, a := range as {
				if ran[a.check] && !used[allowKey{file, line, a.check}] {
					res.stale = append(res.stale, AllowRecord{
						File:   l.RelPath(file),
						Line:   line,
						Check:  a.check,
						Reason: a.reason,
					})
				}
			}
		}
	}
	return res
}

// mergeResults concatenates per-package results and applies the
// canonical total orders, so the merged output is identical however the
// per-package work was scheduled.
func mergeResults(results []pkgResult) ([]Diagnostic, []AllowRecord) {
	var out []Diagnostic
	var stale []AllowRecord
	for _, r := range results {
		out = append(out, r.diags...)
		stale = append(stale, r.stale...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})
	return out, stale
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

// AllowRecord is one //lopc:allow suppression with its audited reason,
// for the lopc-lint -report-allows inventory.
type AllowRecord struct {
	// File is the module-relative path of the comment.
	File string
	Line int
	// Check is the suppressed check; Reason the audit justification.
	Check  string
	Reason string
}

// AllowRecords collects every //lopc:allow comment in the packages,
// sorted by file, line and check, so the full suppression inventory is
// reviewable per PR.
func AllowRecords(l *Loader, pkgs []*Package) []AllowRecord {
	var out []AllowRecord
	for _, pkg := range pkgs {
		for _, lines := range collectAllows(l.Fset, pkg) {
			for _, as := range lines {
				for _, a := range as {
					out = append(out, AllowRecord{
						File:   l.RelPath(a.pos.Filename),
						Line:   a.pos.Line,
						Check:  a.check,
						Reason: a.reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})
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
