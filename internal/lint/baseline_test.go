package lint

import "testing"

// TestDetflowBaseline pins the determinism contract repo-wide: the
// taint-engine checks (detflow) and the seam checks (clockseam,
// rngseam) report zero unsuppressed findings over every module
// package. A new wall-clock read, global-rand draw, or unsorted
// map-order flow into serialized output must either be fixed or carry
// an audited //lopc:allow.
func TestDetflowBaseline(t *testing.T) {
	// A fresh Loader, not the shared fixture loader: loading the real
	// module packages must not enlarge the CHA type universe the fixture
	// expectations were written against.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := ByNames([]string{"detflow", "clockseam", "rngseam"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, pkgs, analyzers)
	for _, d := range diags {
		t.Errorf("determinism-contract violation: %s", d)
	}
}
