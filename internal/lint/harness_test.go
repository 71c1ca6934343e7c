package lint

// An analysistest-style harness written in-repo (the build environment
// is offline, so x/tools is unavailable): each analyzer runs over a
// fixture package under testdata/src/<check>/, and every diagnostic
// must match a // want "substring" comment on its line — and vice
// versa.

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader loads all fixtures through one Loader so the stdlib
// source-import work (fmt, os, math, time) is paid once.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "fix/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return l, pkg
}

func TestAnalyzerFixtures(t *testing.T) {
	everywhere := func(string) bool { return true }
	cases := []struct {
		name     string
		analyzer Analyzer
	}{
		{"floateq", &FloatEq{}},
		{"errdiscard", &ErrDiscard{}},
		{"lockbalance", &LockBalance{}},
		{"deadlock", &Deadlock{}},
		{"clockseam", &ClockSeam{Scope: everywhere}},
		{"rngseam", &RngSeam{Scope: everywhere}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, pkg := loadFixture(t, tc.name)
			diags := Run(l, []*Package{pkg}, []Analyzer{tc.analyzer})
			if len(diags) == 0 {
				t.Fatalf("analyzer %s found nothing in its fixture", tc.name)
			}
			checkWants(t, l, pkg, diags)
		})
	}
}

var wantRE = regexp.MustCompile(`"([^"]*)"`)

type lineKey struct {
	file string
	line int
}

// parseWants collects the expected-diagnostic substrings per line from
// // want "..." comments.
func parseWants(l *Loader, pkg *Package) map[lineKey][]string {
	wants := map[lineKey][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// checkWants verifies the exact correspondence between diagnostics and
// want comments: every diagnostic matched by a want on its line, every
// want matched by a diagnostic.
func checkWants(t *testing.T, l *Loader, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(l, pkg)
	matched := map[lineKey][]bool{}
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for _, d := range diags {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for i, w := range wants[key] {
			if !matched[key][i] && strings.Contains(d.Message, w) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic containing %q, got none", k.file, k.line, w)
			}
		}
	}
}

// countDecls is a loader smoke test: the fixture packages type-check
// and index their functions.
func TestLoaderIndexesFunctions(t *testing.T) {
	l, pkg := loadFixture(t, "floateq")
	n := 0
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if _, ok := d.(*ast.FuncDecl); ok {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no function declarations parsed")
	}
	indexed := 0
	for _, src := range l.funcs {
		if src.Pkg == pkg {
			indexed++
		}
	}
	if indexed != n {
		t.Fatalf("indexed %d functions, want %d", indexed, n)
	}
}
