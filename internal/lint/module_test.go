package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestModuleLint runs the whole suite over every package of the module
// and fails with one file:line:check: message line for each finding,
// each malformed //lopc:allow and each stale allow. A new wall-clock
// read, global-rand draw, exact float comparison or dropped error must
// be fixed or carry an audited //lopc:allow; an allow that no longer
// suppresses anything must be deleted.
func TestModuleLint(t *testing.T) {
	// A fresh Loader, not the shared fixture loader, so the module's
	// packages and the fixtures never share one package table.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	diags, stale := Run(l, pkgs, All())
	for _, line := range report(l, diags, stale) {
		t.Error(line)
	}
	allows := 0
	for _, pkg := range pkgs {
		for _, lines := range collectAllows(l.Fset, pkg) {
			for _, as := range lines {
				allows += len(as)
			}
		}
	}
	t.Logf("%d packages, %d findings, %d allows, %d stale", len(pkgs), len(diags), allows, len(stale))
}

// TestFixtureModuleGolden pins All()'s findings and stale allows on
// testdata/fixturemod, a small module whose internal/core, machine, obs
// and rng packages sit where the analyzers' default scopes look. The
// harness fixtures run clockseam and rngseam everywhere, so this is
// the test of the default scopes themselves.
func TestFixtureModuleGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(filepath.Join("testdata", "fixturemod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	diags, stale := Run(l, pkgs, All())
	got := strings.Join(report(l, diags, stale), "\n") + "\n"
	if got != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// report renders the findings and then the stale allows, one
// file:line:check: message line each, with module-relative paths.
func report(l *Loader, diags, stale []Diagnostic) []string {
	var out []string
	for _, d := range slices.Concat(diags, stale) {
		if rel, err := filepath.Rel(l.ModuleRoot, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		out = append(out, d.String())
	}
	return out
}
