package lint

import (
	"sort"
	"testing"
)

// hotBaselinePkgs are the solver packages whose steady-state loops are
// annotated as //lopc:hotpath roots. CI runs this test on its own
// (go test -run TestAllocHotBaseline) as the hot-path guard.
var hotBaselinePkgs = []string{
	"./internal/core",
	"./internal/mva",
	"./internal/numeric",
	// The psim kernel's LP interface is implemented by the workload and
	// shard packages; they must share the load so CHA can resolve the
	// kernel's Handle/Start dispatch to concrete, analyzable bodies.
	"./internal/psim",
	"./internal/machine/shard",
	"./internal/workload",
}

// hotBaselineRoots are the annotated roots that must exist: one per
// solver iteration step. Removing an annotation (or renaming a step
// without re-annotating it) silently turns allochot off for that
// solver, so the baseline pins the root set.
var hotBaselineRoots = []string{
	"allToAllStep",
	"approxSweep",
	"clientServerStep",
	"generalSweep",
	"lockFreeStep",
	"lockStep",
	"multiSweep",
	// The fixed-point kernel's scalar and vector iterations.
	"secantLoop",
	"andersonLoop",
	// Parallel simulation core: the sequential oracle's dispatch loop
	// and the conservative core's per-window drain.
	"runSeq",
	"drainWindow",
}

// TestAllocHotBaseline pins the allocation posture of the solver hot
// paths: every expected //lopc:hotpath root is present, and allochot
// reports zero unsuppressed findings across the solver packages. A new
// allocation on a hot path must either be hoisted out of the loop or
// carry an audited //lopc:allow with its justification.
func TestAllocHotBaseline(t *testing.T) {
	// A fresh Loader, not the shared fixture loader: loading the real
	// module packages must not enlarge the CHA type universe the fixture
	// expectations were written against.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns(hotBaselinePkgs)
	if err != nil {
		t.Fatal(err)
	}

	roots := map[string]bool{}
	g := l.CallGraph()
	for _, n := range g.Funcs {
		if hasDirective(n.Src.Decl.Doc, HotPathDirective) {
			roots[n.Fn.Name()] = true
		}
	}
	for _, want := range hotBaselineRoots {
		if !roots[want] {
			t.Errorf("expected //lopc:hotpath root %s is missing", want)
		}
	}
	if t.Failed() {
		var have []string
		for name := range roots {
			have = append(have, name)
		}
		sort.Strings(have)
		t.Logf("annotated roots found: %v", have)
	}

	diags := Run(l, pkgs, []Analyzer{&AllocHot{}})
	for _, d := range diags {
		t.Errorf("unsuppressed hot-path allocation: %s", d)
	}
}

// TestDetflowBaseline pins the determinism contract repo-wide: the
// taint-engine checks (detflow) and the seam checks (clockseam,
// rngseam) report zero unsuppressed findings over every module
// package. A new wall-clock read, global-rand draw, or unsorted
// map-order flow into serialized output must either be fixed or carry
// an audited //lopc:allow.
func TestDetflowBaseline(t *testing.T) {
	// A fresh Loader for the same reason as TestAllocHotBaseline: real
	// module packages must not join the fixture loader's CHA universe.
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
