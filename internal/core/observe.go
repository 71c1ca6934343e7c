package core

import "repro/internal/obs"

// Solver names reported through obs.SolveObserver.BeginSolve, one per
// fixed-point solver in this package.
const (
	SolverAllToAll     = "alltoall"
	SolverClientServer = "clientserver"
	SolverGeneral      = "general"
	SolverLock         = "lock"
	SolverLockFree     = "lockfree"
)

// stepGuard names the feasibility guard a solver step tripped on a
// trial iterate. Steps report it instead of building an error: the
// iteration only counts guard trips, and the solver renders the error
// once, from the final iterate, if a guard fires there.
type stepGuard uint8

const (
	// guardNone: the trial iterate was feasible.
	guardNone stepGuard = iota
	// guardInfeasible: the all-to-all inner system has no positive
	// solution (1 − a − a² ≤ 0).
	guardInfeasible
	// guardSaturated: a utilization reached 1.
	guardSaturated
	// guardRetryStorm: the lock-free conflict probability reached
	// maxConflict.
	guardRetryStorm
)

// beginSolve starts an observation on o and returns o's own completion
// func, or, for a nil o, one that does nothing; either is safe to call
// unconditionally. A solver calls it once, with its error's text in the
// stats' Err, and wraps nothing around it, so an observed solve makes
// no allocation of its own.
func beginSolve(o obs.SolveObserver, solver string) func(obs.SolveStats) {
	if o == nil {
		return func(obs.SolveStats) {}
	}
	return o.BeginSolve(solver)
}
