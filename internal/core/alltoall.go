package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// AllToAllResult is the model's solution for one compute/request cycle
// of the homogeneous all-to-all pattern (Chapter 5). Field names follow
// Table 4.1.
type AllToAllResult struct {
	// R is the mean response time of a complete compute/request cycle
	// (Eq. 4.1): R = Rw + 2St + Rq + Ry.
	R float64
	// Rw is the residence time of the computation thread, including
	// interference from higher-priority request handlers (Eq. 5.7).
	Rw float64
	// Rq is the response time of a request handler at the remote node:
	// queueing plus service (Eq. 5.5 / 5.9).
	Rq float64
	// Ry is the response time of the reply handler at the home node
	// (Eq. 5.6 / 5.10).
	Ry float64
	// Qq and Qy are the mean numbers of request/reply handlers present
	// at a node (Eq. 5.3).
	Qq, Qy float64
	// Uq and Uy are the utilizations of a node by request/reply
	// handlers (Eq. 5.4).
	Uq, Uy float64
	// X is total system throughput in cycles completed per unit time
	// across all P threads (Eq. 5.1): X = P/R.
	X float64
	// ContentionFree is W + 2St + 2So, the naive LogP-style estimate
	// and the lower bound of Eq. 5.12.
	ContentionFree float64
	// UpperBound is the §5.3 upper bound W + 2St + β·So on the model's
	// fixed point, with β = 3.46 at C² = 0 (computed for the actual C²).
	UpperBound float64
	// Solve describes the fixed-point iteration that produced this
	// result: iteration count, final residual, guard trips, and the peak
	// handler utilization visited.
	Solve obs.SolveStats
}

// Contention returns the predicted total contention cost per cycle:
// R minus the contention-free time.
func (r AllToAllResult) Contention() float64 { return r.R - r.ContentionFree }

// ContentionFraction returns the fraction of total response time spent
// on contention — the y-axis of Figure 5-1.
func (r AllToAllResult) ContentionFraction() float64 {
	//lopc:allow floateq R is exactly zero only for a zero-value result; any solved cycle time is strictly positive
	if r.R == 0 {
		return 0
	}
	return r.Contention() / r.R
}

// Components returns the paper's Figure 5-3 breakdown of contention per
// cycle: thread interference (Rw − W), request queueing (Rq − So), and
// reply queueing (Ry − So).
func (r AllToAllResult) Components(p Params) (thread, request, reply float64) {
	return r.Rw - p.W, r.Rq - p.So, r.Ry - p.So
}

// allToAllIter is one evaluation of F[R]: the next cycle time r and
// the handler quantities the final result is assembled from. a is the
// handler load λ·So (= Uq = Uy); it is set even when a guard fires, so
// the solver can render the guard's error.
type allToAllIter struct {
	r, rw, rq, ry, qq, qy, a float64
}

// allToAllStep evaluates the recursion F[R] of §5.3 (generalized to any
// C² using the §5.2 residual-life correction): given a trial cycle time
// R it computes the implied per-node arrival rate λ = 1/R, solves the
// inner linear system for the handler response times, and returns the
// resulting cycle time together with the other model quantities, or
// the guard the trial iterate tripped.
//
// Derivation of the inner solve. With a = λ·So and the homogeneous
// visit ratio V = 1/P, Little's law gives Qq = λ·Rq, Qy = λ·Ry and
// Uq = Uy = a. Substituting into Eqs. 5.9 and 5.10,
//
//	Rq = So(1 + λRq + λRy + (C²−1)a)
//	Ry = So(1 + λRq + (C²−1)a/2)
//
// which is linear in (Rq, Ry); eliminating Ry:
//
//	Rq = So·(1 + (C²−1)a + a(1 + (C²−1)a/2)) / (1 − a − a²)
func allToAllStep(p Params, r float64) (allToAllIter, stepGuard) {
	lam := 1 / r // per-node arrival rate of requests (also of replies)
	a := lam * p.So
	denom := 1 - a - a*a
	if denom <= 0 {
		return allToAllIter{a: a}, guardInfeasible
	}
	cc := p.C2 - 1
	rq := p.So * (1 + cc*a + a*(1+cc*a/2)) / denom
	ry := p.So*(1+cc*a/2) + a*rq
	qq := lam * rq
	qy := lam * ry

	var rw float64
	switch {
	case p.ProtocolProcessor:
		rw = p.W
	default:
		if a >= 1 {
			return allToAllIter{a: a}, guardSaturated
		}
		if p.Priority == ShadowServer {
			rw = p.W / (1 - a)
		} else {
			rw = (p.W + p.So*qq) / (1 - a)
		}
	}
	return allToAllIter{r: rw + 2*p.St + rq + ry, rw: rw, rq: rq, ry: ry, qq: qq, qy: qy, a: a}, guardNone
}

// guardError renders the error for guard g, which it tripped at trial
// cycle time r.
func (it allToAllIter) guardError(g stepGuard, r float64) error {
	if g == guardInfeasible {
		return fmt.Errorf("core: all-to-all model infeasible at R=%v (handler load a=%v)", r, it.a)
	}
	return fmt.Errorf("core: request-handler utilization %v >= 1", it.a)
}

// AllToAll solves the homogeneous all-to-all model of Chapter 5 and
// returns the per-cycle solution. Every thread alternates W cycles of
// local work with a blocking request to a uniformly random peer; the
// request handler replies; the reply handler unblocks the thread.
func AllToAll(p Params) (AllToAllResult, error) {
	return AllToAllObserved(p, nil)
}

// AllToAllObserved is AllToAll reporting the solve to o (which may be
// nil). Observation costs one nil check per solve when off; the
// returned result's Solve field carries the same stats the observer
// sees.
func AllToAllObserved(p Params, o obs.SolveObserver) (AllToAllResult, error) {
	return AllToAllFrom(p, 0, o)
}

// AllToAllFrom is AllToAllObserved starting the fixed-point search at
// cycle time r0, clipped into the Eq. 5.11–5.12 bracket. A caller that
// solves many neighbouring points (a fit's loss evaluations) passes the
// previous point's R; r0 ≤ 0 starts from the contention-free cycle plus
// one handler. The start changes how many iterations a solve takes,
// not which fixed point it finds.
func AllToAllFrom(p Params, r0 float64, o obs.SolveObserver) (AllToAllResult, error) {
	if err := p.Validate(); err != nil {
		return AllToAllResult{}, err
	}
	done := beginSolve(o, SolverAllToAll)
	lower := p.ContentionFree()
	upper := p.W + 2*p.St + UpperBoundBeta(p.C2)*p.So
	if r0 <= 0 {
		r0 = lower + p.So
	}
	var stats obs.SolveStats
	f := func(r float64) (float64, bool) {
		it, g := allToAllStep(p, r)
		if g != guardNone {
			stats.GuardTrips++
			return 0, false
		}
		if it.a > stats.MaxUtil {
			stats.MaxUtil = it.a
		}
		return it.r, true
	}
	// F is decreasing (§5.3), so the fixed point is the one sign change
	// of F(R) − R, and Eqs. 5.11 and 5.12 bracket it.
	r, fp, err := numeric.FixedPoint(f, r0, numeric.Bracket{Lo: lower, Hi: upper})
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	it, g := allToAllStep(p, r)
	switch {
	case g != guardNone:
		err = it.guardError(g, r)
	case err != nil:
		err = fmt.Errorf("core: all-to-all fixed point: %w", err)
	}
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	if err != nil {
		return AllToAllResult{}, err
	}
	res := AllToAllResult{
		R:  r,
		Rw: it.rw, Rq: it.rq, Ry: it.ry,
		Qq: it.qq, Qy: it.qy,
		Uq: it.a, Uy: it.a,
		X:              float64(p.P) / r,
		ContentionFree: lower,
		UpperBound:     upper,
		Solve:          stats,
	}
	return res, nil
}

// TotalRuntime returns the model's prediction for the total runtime of
// an algorithm that issues n blocking requests per thread: n·R.
func TotalRuntime(p Params, n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("core: negative request count %d", n)
	}
	res, err := AllToAll(p)
	if err != nil {
		return 0, err
	}
	return float64(n) * res.R, nil
}

// betaMemoBits sizes betaMemo at 2^betaMemoBits slots.
const betaMemoBits = 6

// betaEntry is one memoized UpperBoundBeta answer, keyed on the exact
// bits of C². Entries are immutable once published.
type betaEntry struct {
	c2bits uint64
	beta   float64
}

// betaMemo caches UpperBoundBeta by the exact bits of C². β depends on
// C² alone, and a fit's hundreds of solves share one C², so the Eq.
// 5.12 bisection runs once per distinct variability instead of once
// per solve. The table is direct-mapped: each slot publishes an
// immutable entry through an atomic pointer, so a hit is one load and
// a compare, and a colliding C² simply replaces the slot.
var betaMemo [1 << betaMemoBits]atomic.Pointer[betaEntry]

// UpperBoundBeta returns the coefficient β such that
// R* ≤ W + 2St + β·So holds for the all-to-all fixed point at the given
// handler variability, for every W and St (Eq. 5.12 gives β = 3.46 at
// C² = 0). The worst case is W = St = 0, where handler load is maximal,
// so β is found there: it is the fixed point of F[β·So]/So. Answers are
// memoized by the exact bits of c2 and equal the unmemoized solve's bit
// for bit. C² that is negative, NaN or so large that F overflows has no
// β, and panics.
func UpperBoundBeta(c2 float64) float64 {
	bits := math.Float64bits(c2)
	// Fibonacci hashing spreads neighbouring bit patterns over the slots.
	slot := &betaMemo[(bits*0x9e3779b97f4a7c15)>>(64-betaMemoBits)]
	if e := slot.Load(); e != nil && e.c2bits == bits {
		return e.beta
	}
	beta := upperBoundBeta(c2)
	slot.Store(&betaEntry{c2bits: bits, beta: beta})
	return beta
}

// upperBoundBeta computes UpperBoundBeta without the memo.
func upperBoundBeta(c2 float64) float64 {
	if !(c2 >= 0) {
		panic(fmt.Sprintf("core: C² = %v; UpperBoundBeta needs C² ≥ 0", c2))
	}
	// Work in units of So = 1 with W = St = 0. F is strictly decreasing
	// in the feasible region and the contention-free cycle 2 bounds its
	// fixed point below, so the scalar kernel brackets it from there.
	p := Params{P: 2, W: 0, St: 0, So: 1, C2: c2}
	beta, _, err := numeric.FixedPoint(func(beta float64) (float64, bool) {
		it, g := allToAllStep(p, beta)
		return it.r, g == guardNone
	}, 2, numeric.Bracket{Lo: 2, Hi: math.Inf(1)})
	if err != nil {
		panic(fmt.Sprintf("core: no upper bound found for C²=%v: %v", c2, err))
	}
	return beta
}
