package lint

import "testing"

// TestSeamBaseline pins the seams of the determinism contract
// repo-wide: clockseam and rngseam report zero unsuppressed findings
// over every module package. A new wall-clock read or global-rand draw
// must either go through internal/clock or internal/rng or carry an
// audited //lopc:allow. Whether outputs are byte-stable is checked at
// run time, by each package's run-twice rows (internal/detguard).
func TestSeamBaseline(t *testing.T) {
	// A fresh Loader, not the shared fixture loader, so the module's
	// packages and the fixtures never share one package table.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := ByNames([]string{"clockseam", "rngseam"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(l, pkgs, analyzers) {
		t.Errorf("seam violation: %s", d)
	}
}
