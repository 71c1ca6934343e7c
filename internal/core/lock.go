package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// This file maps two contention scenarios from the paper's direct
// descendants onto the LoPC machinery:
//
//   - Lock: the coarse-grained locking model of Aksenov, Alistarh &
//     Kuznetsov ("Performance Prediction for Coarse-Grained Locking").
//     The critical section plays the role of the handler service time
//     and the lock queue is the paper's server queue, so the model is
//     the Chapter 6 client-server AMVA with Ps = 1 — minus the reply
//     handler, because a lock has no reply handler: the "service"
//     (critical section) runs inline on the acquiring thread.
//
//   - LockFree: the conflict-based model of Atalar, Renaud-Goud &
//     Tsigas ("Analyzing the Performance of Lock-Free Data
//     Structures"). One retry round is a "service"; a conflict — some
//     other thread committing inside the round's read-to-CAS window —
//     regenerates the work, so contention shows up as an attempt
//     multiplier rather than a queue.
//
// Both are compute-then-contend cycles of exactly the LoPC shape:
// threads compute for W, then contend for a serialized resource.

// LockParams parameterizes the coarse-grained lock model: Threads
// concurrent threads each loop {compute W; acquire; critical section;
// release}. All times share one unit (cycles, ns — any consistent
// choice).
type LockParams struct {
	// Threads is the number of contending threads. 1 is legal and
	// degenerates to the uncontended cycle.
	Threads int
	// W is the mean non-critical work per cycle.
	W float64
	// St is the one-way lock handoff latency (scheduler wakeup, cache
	// line transfer of the lock word). A full acquisition pays 2St,
	// mirroring the paper's two network trips.
	St float64
	// So is the mean critical-section time — the handler service time
	// of the work-pile mapping.
	So float64
	// C2 is the squared coefficient of variation of the critical
	// section.
	C2 float64
}

// Validate reports whether the parameters are usable.
func (p LockParams) Validate() error {
	switch {
	case p.Threads < 1:
		return fmt.Errorf("core: lock model needs Threads >= 1, got %d", p.Threads)
	case p.W < 0 || p.St < 0 || p.C2 < 0:
		return fmt.Errorf("core: negative parameter in %+v", p)
	case p.So <= 0:
		return fmt.Errorf("core: So = %v; critical sections must take positive time", p.So)
	case math.IsNaN(p.W + p.St + p.So + p.C2):
		return fmt.Errorf("core: NaN parameter in %+v", p)
	case math.IsInf(p.W+p.St+p.So+p.C2, 0):
		return fmt.Errorf("core: infinite parameter in %+v", p)
	}
	return nil
}

// LockResult is the lock model's solution.
type LockResult struct {
	// X is the system throughput: lock acquisitions per time unit
	// across all threads.
	X float64
	// R is the mean full cycle time of one thread: W + 2St + Rs.
	R float64
	// Rs is the lock response time: queueing delay plus the critical
	// section itself — the Rs of the work-pile model.
	Rs float64
	// Wait is the queueing part alone, Rs − So.
	Wait float64
	// Q is the mean number of threads at the lock (waiting + holding),
	// by Little's law.
	Q float64
	// U is the lock utilization, X·So.
	U float64
	// Solve describes the fixed-point iteration that produced this
	// result.
	Solve obs.SolveStats
}

// Lock solves the coarse-grained lock model: the client-server AMVA of
// Chapter 6 with the lock as the single server and the critical
// section as the handler service time.
func Lock(p LockParams) (LockResult, error) {
	return LockObserved(p, nil)
}

// lockIter is one iterate of the lock model's fixed point: rsNext is
// the next lock response time, and x, r, q and u the model quantities
// at the trial one. u is set even when the saturation guard fires, so
// the solver can render the guard's error.
type lockIter struct {
	x, r, rsNext, q, u float64
}

// lockStep evaluates one iterate of the lock model's fixed point: the
// work-pile iteration (Eq. 6.5 with Little's law) minus the reply
// handler, with Schweitzer's (N−1)/N arrival scaling already folded
// into scale. It returns the next iterate, or the guard the trial
// iterate tripped.
func lockStep(p LockParams, n, scale, rs float64) (lockIter, stepGuard) {
	r := p.W + 2*p.St + rs
	x := n / r
	u := x * p.So
	if u >= 1 {
		return lockIter{u: u}, guardSaturated
	}
	q := x * rs
	rsNext := p.So * (1 + scale*(q+(p.C2-1)/2*u))
	return lockIter{x: x, r: r, rsNext: rsNext, q: q, u: u}, guardNone
}

// guardError renders the saturation guard's error, which it tripped at
// trial lock response time rs.
func (it lockIter) guardError(rs float64) error {
	return fmt.Errorf("core: lock utilization %v >= 1 at Rs=%v", it.u, rs)
}

// LockObserved is Lock reporting the solve to o (which may be nil).
//
// The fixed point is the work-pile iteration (Eq. 6.5 with Little's
// law) with two changes: the reply-handler term So is dropped from R
// (a lock has no reply handler), and the arriving thread sees the
// queue state with itself removed — Schweitzer's (N−1)/N scaling —
// so that Threads = 1 yields exactly Rs = So.
func LockObserved(p LockParams, o obs.SolveObserver) (LockResult, error) {
	if err := p.Validate(); err != nil {
		return LockResult{}, err
	}
	done := beginSolve(o, SolverLock)
	n := float64(p.Threads)
	scale := (n - 1) / n // arrival theorem: an arriver never queues behind itself
	var stats obs.SolveStats
	f := func(rs float64) (float64, bool) {
		it, g := lockStep(p, n, scale, rs)
		if g != guardNone {
			stats.GuardTrips++
			return 0, false
		}
		if it.u > stats.MaxUtil {
			stats.MaxUtil = it.u
		}
		return it.rsNext, true
	}
	rs, fp, err := numeric.FixedPoint(f, p.So, numeric.Unbracketed)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	it, g := lockStep(p, n, scale, rs)
	switch {
	case g != guardNone:
		err = it.guardError(rs)
	case err != nil:
		err = fmt.Errorf("core: lock fixed point: %w", err)
	}
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	if err != nil {
		return LockResult{}, err
	}
	res := LockResult{X: it.x, R: it.r, Rs: rs, Wait: rs - p.So, Q: it.x * rs, U: it.u, Solve: stats}
	return res, nil
}

// LockBounds returns the two optimistic throughput bounds that bracket
// the lock model, in the LogP style of Chapter 6: the serialization
// bound 1/So (the lock hands out at most one critical section at a
// time) and the uncontended bound Threads/(W + 2St + So) (no thread
// ever waits). True throughput never exceeds min(serial, uncontended),
// and as So → 0 the model degenerates to the uncontended bound.
func LockBounds(p LockParams) (serial, uncontended float64) {
	serial = 1 / p.So
	uncontended = float64(p.Threads) / (p.W + 2*p.St + p.So)
	return serial, uncontended
}

// LockFreeParams parameterizes the CAS-retry conflict model: Threads
// threads each loop {compute W; retry round(s) of length So until the
// CAS succeeds}, where a round fails if another thread commits inside
// its read-to-CAS window.
type LockFreeParams struct {
	// Threads is the number of contending threads.
	Threads int
	// W is the mean parallel work between successful operations.
	W float64
	// St is the serialization cost of one successful commit — the
	// exclusive cache-line transfer the winning CAS pays. It bounds
	// throughput at 1/St (when positive) exactly as So bounds the
	// lock's.
	St float64
	// So is the mean length of one retry round: read the shared state,
	// compute the new value, attempt the CAS. This is the conflict
	// window — the model's "service".
	So float64
	// C2 is the squared coefficient of variation of the round length.
	// Longer-tailed rounds are exposed to conflicts for longer: the
	// no-conflict probability is the Laplace transform of the window
	// length at the competing commit rate.
	C2 float64
}

// Validate reports whether the parameters are usable.
func (p LockFreeParams) Validate() error {
	switch {
	case p.Threads < 1:
		return fmt.Errorf("core: lock-free model needs Threads >= 1, got %d", p.Threads)
	case p.W < 0 || p.St < 0 || p.C2 < 0:
		return fmt.Errorf("core: negative parameter in %+v", p)
	case p.So <= 0:
		return fmt.Errorf("core: So = %v; retry rounds must take positive time", p.So)
	case math.IsNaN(p.W + p.St + p.So + p.C2):
		return fmt.Errorf("core: NaN parameter in %+v", p)
	case math.IsInf(p.W+p.St+p.So+p.C2, 0):
		return fmt.Errorf("core: infinite parameter in %+v", p)
	}
	return nil
}

// LockFreeResult is the conflict model's solution.
type LockFreeResult struct {
	// X is the system throughput: successful operations per time unit
	// across all threads.
	X float64
	// R is the mean cycle time of one thread: W + Attempts·So + St.
	R float64
	// Attempts is the expected number of retry rounds per successful
	// operation, 1/(1 − Conflict). Contention regenerates work instead
	// of queueing it: this is the multiplier.
	Attempts float64
	// Conflict is the probability one retry round loses its CAS to a
	// competing commit.
	Conflict float64
	// U is the utilization of the serialization point, X·St.
	U float64
	// Solve describes the fixed-point iteration that produced this
	// result.
	Solve obs.SolveStats
}

// maxConflict caps the per-round conflict probability inside the
// iteration; beyond it the attempt multiplier 1/(1−q) overflows any
// useful range and the guard pushes the iterate back instead.
const maxConflict = 0.999

// lockFreeConflict returns the probability that at least one competing
// commit (rate lam) lands inside one retry round of mean length so and
// SCV c2. For c2 = 0 the window is deterministic and the no-conflict
// probability is exp(−lam·so); for c2 > 0 the window is gamma-like and
// the no-conflict probability is its Laplace transform at lam,
// (1 + lam·so·c2)^(−1/c2), which recovers the exponential-window case
// at c2 = 1 and the deterministic case as c2 → 0.
func lockFreeConflict(lam, so, c2 float64) float64 {
	w := lam * so
	if c2 > 0 {
		return 1 - math.Pow(1+w*c2, -1/c2)
	}
	return 1 - math.Exp(-w)
}

// LockFree solves the CAS-retry conflict model.
func LockFree(p LockFreeParams) (LockFreeResult, error) {
	return LockFreeObserved(p, nil)
}

// lockFreeIter is one iterate of the conflict model's fixed point:
// rNext is the next cycle time, and attempts, q and u the model
// quantities at the trial one. u and q are set as far as the step got
// when a guard fires, so the solver can render the guard's error.
type lockFreeIter struct {
	rNext, attempts, q, u float64
}

// lockFreeStep evaluates one iterate of the conflict model's fixed
// point: given a trial cycle time r it derives the competing commit
// rate, the conflict probability, and the regenerated work, and returns
// the next iterate or the guard the trial iterate tripped.
func lockFreeStep(p LockFreeParams, n, r float64) (lockFreeIter, stepGuard) {
	x := n / r
	u := x * p.St
	if u >= 1 {
		return lockFreeIter{u: u}, guardSaturated
	}
	lam := x * (n - 1) / n
	q := lockFreeConflict(lam, p.So, p.C2)
	if q >= maxConflict {
		return lockFreeIter{q: q, u: u}, guardRetryStorm
	}
	a := 1 / (1 - q)
	rNext := p.W + a*p.So + p.St
	return lockFreeIter{rNext: rNext, attempts: a, q: q, u: u}, guardNone
}

// guardError renders the error for guard g, which it tripped at trial
// cycle time r.
func (it lockFreeIter) guardError(g stepGuard, r float64) error {
	if g == guardSaturated {
		return fmt.Errorf("core: commit serialization utilization %v >= 1 at R=%v", it.u, r)
	}
	return fmt.Errorf("core: conflict probability %v at R=%v; retry storm", it.q, r)
}

// LockFreeObserved is LockFree reporting the solve to o (which may be
// nil). The unknown is the cycle time R: throughput X = Threads/R sets
// the competing commit rate λ = X·(Threads−1)/Threads seen by any one
// round, λ sets the conflict probability q, and the regenerated work
// A·So = So/(1−q) feeds back into R.
func LockFreeObserved(p LockFreeParams, o obs.SolveObserver) (LockFreeResult, error) {
	if err := p.Validate(); err != nil {
		return LockFreeResult{}, err
	}
	done := beginSolve(o, SolverLockFree)
	n := float64(p.Threads)
	var stats obs.SolveStats
	f := func(r float64) (float64, bool) {
		it, g := lockFreeStep(p, n, r)
		if g != guardNone {
			stats.GuardTrips++
			return 0, false
		}
		if it.u > stats.MaxUtil {
			stats.MaxUtil = it.u
		}
		return it.rNext, true
	}
	r0 := p.W + p.So + p.St // the conflict-free cycle
	r, fp, err := numeric.FixedPoint(f, r0, numeric.Unbracketed)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	it, g := lockFreeStep(p, n, r)
	switch {
	case g != guardNone:
		err = it.guardError(g, r)
	case err != nil:
		err = fmt.Errorf("core: lock-free fixed point: %w", err)
	}
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	if err != nil {
		return LockFreeResult{}, err
	}
	x := n / r
	res := LockFreeResult{X: x, R: r, Attempts: it.attempts, Conflict: it.q, U: x * p.St, Solve: stats}
	return res, nil
}

// LockFreeBounds returns the optimistic bounds bracketing the
// conflict model: the commit serialization bound 1/St (infinite when
// St = 0 — the model then has no hard ceiling, only conflict decay)
// and the conflict-free bound Threads/(W + So + St).
func LockFreeBounds(p LockFreeParams) (serial, conflictFree float64) {
	serial = math.Inf(1)
	if p.St > 0 {
		serial = 1 / p.St
	}
	conflictFree = float64(p.Threads) / (p.W + p.So + p.St)
	return serial, conflictFree
}
