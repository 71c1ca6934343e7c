package mva

import (
	"testing"

	"repro/internal/allocguard"
)

// TestSteadyStateAllocs guards the AMVA solvers' steady state by
// measurement: each row solves a work-pile network at two populations
// or class mixes, the second taking several more map evaluations, and
// both must allocate equally often. The rows name the sweep each
// solve iterates.
func TestSteadyStateAllocs(t *testing.T) {
	centers := WorkpileNetwork(0, 2, 1500, 40, 131)
	single := func(solve func([]Center, int) (Result, error), n int) allocguard.Solve {
		return func() (int, error) {
			r, err := solve(centers, n)
			return r.Solve.Iters, err
		}
	}
	// n clients of each of two classes, doing 1500 and w cycles of work
	// per request; the second class's requests take twice as long.
	multi := func(solve func(MultiParams) (MultiResult, error), w float64, n int) allocguard.Solve {
		p := MultiParams{Centers: centers, N: []int{n, n}, Demand: make([][]float64, 2)}
		for c, wc := range []float64{1500, w} {
			p.Demand[c] = []float64{wc + 2*40 + 131, 131 * float64(c+1) / 2, 131 * float64(c+1) / 2}
		}
		return func() (int, error) {
			r, err := solve(p)
			return r.Solve.Iters, err
		}
	}
	rows := []struct {
		name        string
		quick, slow allocguard.Solve
		// max is the allocations per solve: the result's vectors and the
		// solver's workspace, all allocated before the sweeps.
		max int
	}{
		{"approxSweep/Bard", single(Bard, 2), single(Bard, 4096), 3},
		{"approxSweep/Schweitzer", single(Schweitzer, 2), single(Schweitzer, 4096), 3},
		{"multiSweep/MultiBard", multi(MultiBard, 1500, 32), multi(MultiBard, 1e5, 8), 16},
		{"multiSweep/MultiSchweitzer", multi(MultiSchweitzer, 1500, 32), multi(MultiSchweitzer, 1e5, 8), 16},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { allocguard.Iters(t, row.quick, row.slow, row.max) })
	}
}
