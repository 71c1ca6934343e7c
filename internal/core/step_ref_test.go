package core

// Test-only references: the solver step functions and solvers as they
// were before the steps were made lean (a step now returns its scalars
// and a guard, and the solver renders errors once from the final
// iterate). The differential tests in step_test.go and the fuzz targets
// compare the production code against these bit for bit, so the lean
// steps are held to "same iterates, same results, same error text".

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// allToAllStepRef is allToAllStep as it was before the step returned a
// guard: a full AllToAllResult and an error built on the guard path.
func allToAllStepRef(p Params, r float64) (AllToAllResult, error) {
	lam := 1 / r // per-node arrival rate of requests (also of replies)
	a := lam * p.So
	denom := 1 - a - a*a
	if denom <= 0 {
		return AllToAllResult{}, fmt.Errorf("core: all-to-all model infeasible at R=%v (handler load a=%v)", r, a)
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
			return AllToAllResult{}, fmt.Errorf("core: request-handler utilization %v >= 1", a)
		}
		if p.Priority == ShadowServer {
			rw = p.W / (1 - a)
		} else {
			rw = (p.W + p.So*qq) / (1 - a)
		}
	}
	res := AllToAllResult{
		R:  rw + 2*p.St + rq + ry,
		Rw: rw, Rq: rq, Ry: ry,
		Qq: qq, Qy: qy,
		Uq: a, Uy: a,
	}
	return res, nil
}

// clientServerStepRef is the earlier clientServerStep.
func clientServerStepRef(p ClientServerParams, pc, ps, rs float64) (ClientServerResult, error) {
	r := p.W + 2*p.St + rs + p.So
	x := pc / r
	lamS := x / ps // arrival rate at each server
	us := lamS * p.So
	if us >= 1 {
		return ClientServerResult{}, fmt.Errorf("core: server utilization %v >= 1 at Rs=%v", us, rs)
	}
	qs := lamS * rs
	rsNext := p.So * (1 + qs + (p.C2-1)/2*us)
	return ClientServerResult{X: x, R: r, Rs: rsNext, Qs: qs, Us: us}, nil
}

// lockStepRef is the earlier lockStep.
func lockStepRef(p LockParams, n, scale, rs float64) (LockResult, error) {
	r := p.W + 2*p.St + rs
	x := n / r
	u := x * p.So
	if u >= 1 {
		return LockResult{}, fmt.Errorf("core: lock utilization %v >= 1 at Rs=%v", u, rs)
	}
	q := x * rs
	rsNext := p.So * (1 + scale*(q+(p.C2-1)/2*u))
	return LockResult{X: x, R: r, Rs: rsNext, Q: q, U: u}, nil
}

// lockFreeStepRef is the earlier lockFreeStep.
func lockFreeStepRef(p LockFreeParams, n, r float64) (LockFreeResult, error) {
	x := n / r
	u := x * p.St
	if u >= 1 {
		return LockFreeResult{}, fmt.Errorf("core: commit serialization utilization %v >= 1 at R=%v", u, r)
	}
	lam := x * (n - 1) / n
	q := lockFreeConflict(lam, p.So, p.C2)
	if q >= maxConflict {
		return LockFreeResult{}, fmt.Errorf("core: conflict probability %v at R=%v; retry storm", q, r)
	}
	a := 1 / (1 - q)
	rNext := p.W + a*p.So + p.St
	return LockFreeResult{X: x, R: rNext, Attempts: a, Conflict: q, U: u}, nil
}

// allToAllRef is the earlier AllToAll: the same loop on
// allToAllStepRef, assembling the result from a full step.
func allToAllRef(p Params) (AllToAllResult, error) {
	if err := p.Validate(); err != nil {
		return AllToAllResult{}, err
	}
	lower := p.ContentionFree()
	var stats obs.SolveStats
	f := func(r float64) float64 {
		step, err := allToAllStepRef(p, r)
		if err != nil {
			stats.GuardTrips++
			return r + p.So
		}
		if step.Uq > stats.MaxUtil {
			stats.MaxUtil = step.Uq
		}
		return step.R
	}
	r, fp, err := numeric.FixedPointTraced(f, lower+p.So, numeric.DefaultFixedPointOpts())
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		return AllToAllResult{}, fmt.Errorf("core: all-to-all fixed point: %w", err)
	}
	res, err := allToAllStepRef(p, r)
	if err != nil {
		return AllToAllResult{}, err
	}
	res.R = r
	res.X = float64(p.P) / r
	res.ContentionFree = lower
	res.UpperBound = p.W + 2*p.St + upperBoundBetaRef(p.C2)*p.So
	res.Solve = stats
	return res, nil
}

// upperBoundBetaRef is the earlier UpperBoundBeta: no memo, bisecting
// on allToAllStepRef. It shares the production bracket, which doubles
// until the sign change instead of stopping at 2·10⁶.
func upperBoundBetaRef(c2 float64) float64 {
	if c2 < 0 {
		panic(fmt.Sprintf("core: negative C² %v", c2))
	}
	p := Params{P: 2, W: 0, St: 0, So: 1, C2: c2}
	g := func(beta float64) float64 {
		step, err := allToAllStepRef(p, beta)
		if err != nil {
			return 1
		}
		return step.R - beta
	}
	lo, hi := 2.0, 2.0
	for i := 0; i < 1024 && g(hi) > 0; i++ {
		hi *= 2
	}
	if math.IsInf(hi, 1) || g(hi) > 0 {
		panic(fmt.Sprintf("core: no upper bound found for C²=%v", c2))
	}
	beta, err := numeric.Bisect(g, lo, hi, 1e-10)
	if err != nil {
		panic(fmt.Sprintf("core: UpperBoundBeta bisection failed: %v", err))
	}
	return beta
}

// clientServerRef is the earlier ClientServer.
func clientServerRef(p ClientServerParams) (ClientServerResult, error) {
	if err := p.Validate(); err != nil {
		return ClientServerResult{}, err
	}
	pc := float64(p.P - p.Ps)
	ps := float64(p.Ps)
	var stats obs.SolveStats
	f := func(rs float64) float64 {
		res, err := clientServerStepRef(p, pc, ps, rs)
		if err != nil {
			stats.GuardTrips++
			return rs * 2
		}
		if res.Us > stats.MaxUtil {
			stats.MaxUtil = res.Us
		}
		return res.Rs
	}
	rs, fp, err := numeric.FixedPointTraced(f, p.So, numeric.DefaultFixedPointOpts())
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		return ClientServerResult{}, fmt.Errorf("core: client-server fixed point: %w", err)
	}
	res, err := clientServerStepRef(p, pc, ps, rs)
	if err != nil {
		return ClientServerResult{}, err
	}
	res.Rs = rs
	res.Qs = res.X / ps * rs
	res.Solve = stats
	return res, nil
}

// lockRef is the earlier Lock.
func lockRef(p LockParams) (LockResult, error) {
	if err := p.Validate(); err != nil {
		return LockResult{}, err
	}
	n := float64(p.Threads)
	scale := (n - 1) / n
	var stats obs.SolveStats
	f := func(rs float64) float64 {
		res, err := lockStepRef(p, n, scale, rs)
		if err != nil {
			stats.GuardTrips++
			return rs * 2
		}
		if res.U > stats.MaxUtil {
			stats.MaxUtil = res.U
		}
		return res.Rs
	}
	rs, fp, err := numeric.FixedPointTraced(f, p.So, numeric.DefaultFixedPointOpts())
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		return LockResult{}, fmt.Errorf("core: lock fixed point: %w", err)
	}
	res, err := lockStepRef(p, n, scale, rs)
	if err != nil {
		return LockResult{}, err
	}
	res.Rs = rs
	res.Wait = rs - p.So
	res.Q = res.X * rs
	res.Solve = stats
	return res, nil
}

// lockFreeRef is the earlier LockFree.
func lockFreeRef(p LockFreeParams) (LockFreeResult, error) {
	if err := p.Validate(); err != nil {
		return LockFreeResult{}, err
	}
	n := float64(p.Threads)
	var stats obs.SolveStats
	f := func(r float64) float64 {
		res, err := lockFreeStepRef(p, n, r)
		if err != nil {
			stats.GuardTrips++
			return r * 2
		}
		if res.U > stats.MaxUtil {
			stats.MaxUtil = res.U
		}
		return res.R
	}
	r0 := p.W + p.So + p.St
	r, fp, err := numeric.FixedPointTraced(f, r0, numeric.DefaultFixedPointOpts())
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		return LockFreeResult{}, fmt.Errorf("core: lock-free fixed point: %w", err)
	}
	res, err := lockFreeStepRef(p, n, r)
	if err != nil {
		return LockFreeResult{}, err
	}
	res.R = r
	res.X = n / r
	res.U = res.X * p.St
	res.Solve = stats
	return res, nil
}
