package lint

import (
	"go/types"
	"reflect"
	"testing"
)

// taintResult looks up the first-result taint of the named
// package-level function or method (receiver.name) in the fixture.
func taintResult(t *testing.T, l *Loader, pkg *Package, eng *TaintEngine, name string) taintVal {
	t.Helper()
	fn := fixtureFunc(t, pkg, name)
	sum := eng.summaryOf(fn)
	if sum == nil {
		t.Fatalf("no summary for %s", name)
	}
	if len(sum.results) == 0 {
		t.Fatalf("%s has no results", name)
	}
	return sum.results[0]
}

func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	// receiver methods: walk the scope's named types.
	for _, tn := range pkg.Types.Scope().Names() {
		named, ok := pkg.Types.Scope().Lookup(tn).Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

// TestTaintPropagation pins the engine's propagation mechanisms on the
// taint fixture: each function isolates one flow and its first result
// must (or must not) carry the wall-clock kind.
func TestTaintPropagation(t *testing.T) {
	l, pkg := loadFixture(t, "taint")
	eng := l.Taint()

	tainted := []string{"Closure", "MethodValue", "Variadic", "Even", "Odd", "Pipe", "Stored"}
	for _, name := range tainted {
		v := taintResult(t, l, pkg, eng, name)
		if v.kinds&(1<<taintWallClock) == 0 {
			t.Errorf("%s: result not wall-clock tainted (kinds=%05b)", name, v.kinds)
		}
	}
	if v := taintResult(t, l, pkg, eng, "Clean"); v.hasKinds() {
		t.Errorf("Clean: result carries source kinds %05b; want none", v.kinds)
	}

	// The receiver-store method must summarize the write in recvOut, so
	// callers see their receiver tainted.
	stamp := fixtureFunc(t, pkg, "stamp")
	sum := eng.summaryOf(stamp)
	if sum == nil || !sum.recvOut.hasKinds() {
		t.Errorf("stamp: receiver write not recorded in recvOut")
	}
}

// TestTaintSCCTermination pins fixed-point termination on the
// recursive component: building the engine must converge (the pass
// caps in Taint()/analyze() are guards, not the convergence
// mechanism), and both members of the SCC must agree on the taint.
func TestTaintSCCTermination(t *testing.T) {
	l, pkg := loadFixture(t, "taint")
	eng := l.Taint()
	even := taintResult(t, l, pkg, eng, "Even")
	odd := taintResult(t, l, pkg, eng, "Odd")
	if even.kinds != odd.kinds {
		t.Errorf("SCC members disagree: Even kinds=%05b, Odd kinds=%05b", even.kinds, odd.kinds)
	}
	// Rebuilding from scratch must reach the same fixed point:
	// determinism of the bottom-up order.
	l2, pkg2 := freshFixtureLoader(t)
	eng2 := l2.Taint()
	even2 := taintResult(t, l2, pkg2, eng2, "Even")
	if even.kinds != even2.kinds || even.inputs != even2.inputs {
		t.Errorf("rebuild diverged: kinds %05b vs %05b", even.kinds, even2.kinds)
	}
}

func freshFixtureLoader(t *testing.T) (*Loader, *Package) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/taint", "fix/taint")
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

// TestRunParallelMatchesSequential pins the parallel driver's
// byte-identity contract at the API level: the same packages, analyzers
// and config must produce deep-equal diagnostics and stale records at
// any job count.
func TestRunParallelMatchesSequential(t *testing.T) {
	l := fixtureLoader(t)
	var pkgs []*Package
	for _, name := range []string{"taint", "detflow", "clockseam", "rngseam", "deadlock"} {
		_, pkg := loadFixture(t, name)
		pkgs = append(pkgs, pkg)
	}
	analyzers := All()
	seqD, seqS := RunWithStale(l, pkgs, analyzers)
	for _, jobs := range []int{2, 4, 8} {
		parD, parS := RunParallel(l, pkgs, analyzers, jobs)
		if !reflect.DeepEqual(seqD, parD) {
			t.Errorf("jobs=%d: diagnostics differ from sequential run", jobs)
		}
		if !reflect.DeepEqual(seqS, parS) {
			t.Errorf("jobs=%d: stale allows differ from sequential run", jobs)
		}
	}
}

// TestStaleAllowDetection pins RunWithStale's dead-suppression
// reporting: an allow whose check ran but suppressed nothing is
// reported; the same allow is NOT reported when its check did not run.
func TestStaleAllowDetection(t *testing.T) {
	l, pkg := loadFixture(t, "stale")
	// floateq runs and the allow on a clean line suppresses nothing.
	diags, stale := RunWithStale(l, []*Package{pkg}, []Analyzer{&FloatEq{}})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if len(stale) != 1 {
		t.Fatalf("want exactly one stale allow, got %d: %v", len(stale), stale)
	}
	if stale[0].Check != "floateq" {
		t.Errorf("stale allow names check %q, want floateq", stale[0].Check)
	}
	// The same package under an analyzer set that does not include
	// floateq: the allow is out of scope, not stale.
	_, stale = RunWithStale(l, []*Package{pkg}, []Analyzer{&ErrDiscard{}})
	if len(stale) != 0 {
		t.Errorf("allow for a check that did not run reported stale: %v", stale)
	}
	// An allow that does suppress a finding is never stale.
	_, stale = RunWithStale(l, []*Package{pkg}, []Analyzer{&ClockSeam{}})
	if len(stale) != 0 {
		t.Errorf("exercised allow reported stale: %v", stale)
	}
}
