// Package allocguard backs the TestSteadyStateAllocs tables, which
// check by measurement that the steady-state loops of the AMVA solvers
// and the parallel simulator allocate nothing per iteration: the same
// code run for a little work and for much more must allocate equally
// often. Only tests import it.
package allocguard

import "testing"

// minExtraIters is how many more map evaluations a row's slow solve
// must take than its quick one, so that one allocation per evaluation
// shows as a difference of at least that many allocations.
const minExtraIters = 5

// Solve runs one solve of a guarded row and returns the map
// evaluations it took.
type Solve func() (iters int, err error)

// Iters checks a solver row. quick and slow solve at two points, the
// second taking at least minExtraIters more evaluations; both must
// allocate equally often per solve, and at most max times. It skips
// under the race detector.
func Iters(t *testing.T, quick, slow Solve, max int) {
	t.Helper()
	if Race {
		t.Skip("the race detector changes allocation counts")
	}
	qa, qi := measure(t, quick)
	sa, si := measure(t, slow)
	if si < qi+minExtraIters {
		t.Fatalf("slow point takes %d evaluations, quick %d: want at least %d more", si, qi, minExtraIters)
	}
	t.Logf("%d allocations at %d evaluations, %d at %d", qa, qi, sa, si)
	if qa != sa || qa > max {
		t.Errorf("allocations per solve: %d at %d evaluations, %d at %d; want equal and at most %d",
			qa, qi, sa, si, max)
	}
}

// measure returns the allocations per solve of s, which is run once to
// warm any memo first, and the evaluations it takes.
func measure(t *testing.T, s Solve) (allocs, iters int) {
	t.Helper()
	iters, err := s()
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun averages whole counts over its runs; a solve that
	// allocates a fixed number of times averages to that integer.
	return int(testing.AllocsPerRun(20, func() {
		if _, err := s(); err != nil {
			t.Fatal(err)
		}
	})), iters
}
