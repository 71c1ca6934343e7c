package core

import (
	"testing"

	"repro/internal/allocguard"
)

// TestSteadyStateAllocs guards the solvers' steady state by
// measurement: each row solves at a quick point and at one that takes
// several more map evaluations, and both must allocate equally often.
// The rows name the step each solve iterates.
func TestSteadyStateAllocs(t *testing.T) {
	general := func(w, so float64) GeneralParams {
		ws := make([]float64, 16)
		for i := range ws {
			ws[i] = w
		}
		return GeneralParams{P: 16, W: ws, V: ClientServerVisits(14, 2), St: 40, So: []float64{so}, C2: 1}
	}
	quickGeneral, slowGeneral := general(1e6, 200), general(0, 2000)
	rows := []struct {
		name        string
		quick, slow allocguard.Solve
		// max is the allocations per solve: none, except General's
		// vectors and kernel workspace, allocated once before its
		// sweeps.
		max int
	}{
		{"allToAllStep",
			func() (int, error) {
				r, err := AllToAll(Params{P: 64, W: 1e5, St: 40, So: 200})
				return r.Solve.Iters, err
			},
			func() (int, error) {
				r, err := AllToAll(Params{P: 64, St: 40, So: 200, C2: 1})
				return r.Solve.Iters, err
			},
			0},
		{"clientServerStep",
			func() (int, error) {
				r, err := ClientServer(ClientServerParams{P: 66, Ps: 9, W: 1e5, St: 40, So: 131})
				return r.Solve.Iters, err
			},
			func() (int, error) {
				r, err := ClientServer(ClientServerParams{P: 66, Ps: 9, St: 40, So: 131})
				return r.Solve.Iters, err
			},
			0},
		{"lockStep",
			func() (int, error) {
				r, err := Lock(LockParams{Threads: 2, W: 1e5, St: 10, So: 100})
				return r.Solve.Iters, err
			},
			func() (int, error) {
				r, err := Lock(LockParams{Threads: 256, W: 10, St: 10, So: 100, C2: 1})
				return r.Solve.Iters, err
			},
			0},
		{"lockFreeStep",
			func() (int, error) {
				r, err := LockFree(LockFreeParams{Threads: 2, W: 1e5, St: 1, So: 20})
				return r.Solve.Iters, err
			},
			func() (int, error) {
				r, err := LockFree(LockFreeParams{Threads: 256, W: 10, St: 1, So: 20})
				return r.Solve.Iters, err
			},
			0},
		{"generalSweep",
			func() (int, error) { r, err := General(quickGeneral); return r.Solve.Iters, err },
			func() (int, error) { r, err := General(slowGeneral); return r.Solve.Iters, err },
			4},
		{"Multithreaded",
			func() (int, error) {
				r, err := Multithreaded(Params{P: 32, W: 1e6, St: 40, So: 200, C2: 1}, 4)
				return r.Solve.Iters, err
			},
			func() (int, error) {
				r, err := Multithreaded(Params{P: 32, W: 10, St: 40, So: 200}, 16)
				return r.Solve.Iters, err
			},
			0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { allocguard.Iters(t, row.quick, row.slow, row.max) })
	}
}
