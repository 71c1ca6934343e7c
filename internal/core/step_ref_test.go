package core

// Test-only references: the solver step functions and solvers as they
// were before the steps were made lean (a step now returns its scalars
// and a guard, and the solver renders errors once from the final
// iterate) and before the solvers moved onto the accelerated kernel of
// internal/numeric. The references iterate with dampedFixedPointRef,
// the plain damped iteration every solver used to run.
//
// The differential tests in step_test.go compare the lean steps against
// these bit for bit ("same iterates, same error text"). The solves now
// take different iterates to the same fixed points, so they are held to
// agreement within refTol of the references, and the fuzz targets check
// the paper's invariants on top.

import (
	"fmt"
	"math"

	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// fixedPointOptsRef controls dampedFixedPointRef.
type fixedPointOptsRef struct {
	Tol     float64
	MaxIter int
	Damping float64
}

// defaultFixedPointOptsRef are the options every scalar solver used,
// except that the tolerance is 1e-13 instead of 1e-10. Damped
// iteration stops as soon as a step is below tolerance, which leaves
// it up to tol/(1−F') from the fixed point: at the old 1e-10 that error
// alone reaches 1e-8 in amplified quantities (Q = X·Rs at small So),
// and the comparison would measure the reference, not the solver.
func defaultFixedPointOptsRef() fixedPointOptsRef {
	return fixedPointOptsRef{Tol: 1e-13, MaxIter: 100000, Damping: 0.5}
}

// dampedFixedPointRef is the damped iteration x <- (1-d)x + d·f(x) the
// solvers ran before the accelerated kernel, returning the fixed point
// and how the iteration went.
func dampedFixedPointRef(f func(float64) float64, x0 float64, opts fixedPointOptsRef) (float64, numeric.FixedPointInfo, error) {
	var info numeric.FixedPointInfo
	if opts.Tol <= 0 || opts.MaxIter <= 0 || opts.Damping <= 0 || opts.Damping > 1 {
		return 0, info, fmt.Errorf("numeric: invalid fixed point options %+v", opts)
	}
	x := x0
	for i := 0; i < opts.MaxIter; i++ {
		info.Iters = i + 1
		fx := f(x)
		if math.IsNaN(fx) || math.IsInf(fx, 0) {
			return 0, info, fmt.Errorf("numeric: fixed point map returned %v at x=%v", fx, x)
		}
		next := (1-opts.Damping)*x + opts.Damping*fx
		info.Residual = math.Abs(next - x)
		if info.Residual <= opts.Tol*(1+math.Abs(next)) {
			info.Converged = true
			return next, info, nil
		}
		x = next
	}
	return x, info, numeric.ErrNoConvergence
}

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
	r, fp, err := dampedFixedPointRef(f, lower+p.So, defaultFixedPointOptsRef())
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
// on allToAllStepRef within a bracket that doubles until the sign
// change.
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
	rs, fp, err := dampedFixedPointRef(f, p.So, defaultFixedPointOptsRef())
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
	rs, fp, err := dampedFixedPointRef(f, p.So, defaultFixedPointOptsRef())
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
	r, fp, err := dampedFixedPointRef(f, r0, defaultFixedPointOptsRef())
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

// generalStateRef holds the iteration vectors of generalRef.
type generalStateRef struct {
	// r and x are per-thread cycle times and throughputs; rw the
	// per-thread residence times.
	r, x, rw []float64
	// rq, ry, uq, uy, qq, qy are the per-node handler response times,
	// utilizations and queue lengths.
	rq, ry, uq, uy, qq, qy []float64
}

// Iteration constants of the general AMVA sweep.
const (
	generalMaxIterRef = 200000
	generalDampingRef = 0.5
	generalTolRef     = 1e-14
)

// generalSweepRef runs one damped iteration of the Appendix A equations
// over every node and thread (A.1–A.10 with the §5.2 correction),
// updating s in place and returning the largest single-quantity change,
// each relative to 1 plus the quantity.
func generalSweepRef(p GeneralParams, so []float64, active []bool, s *generalStateRef, stats *obs.SolveStats) float64 {
	P := p.P
	// Throughputs from current cycle times (A.1, A.2).
	for c := 0; c < P; c++ {
		if active[c] && s.r[c] > 0 {
			s.x[c] = 1 / s.r[c]
		} else {
			s.x[c] = 0
		}
	}
	for k := 0; k < P; k++ {
		sum := 0.0
		for c := 0; c < P; c++ {
			sum += p.V[c][k] * s.x[c]
		}
		s.uq[k] = so[k] * sum      // A.3
		s.uy[k] = s.x[k] * so[k]   // A.4: one reply per cycle, at home
		s.qq[k] = s.rq[k] * sum    // A.5
		s.qy[k] = s.x[k] * s.ry[k] // A.6
		if s.uq[k] > stats.MaxUtil {
			stats.MaxUtil = s.uq[k]
		}
	}
	// Handler response times (A.7, A.8) with the §5.2 correction.
	maxDelta := 0.0
	for k := 0; k < P; k++ {
		newRq := so[k] * (1 + s.qq[k] + s.qy[k] + (p.C2-1)/2*(s.uq[k]+s.uy[k]))
		newRy := so[k] * (1 + s.qq[k] + (p.C2-1)/2*s.uq[k])
		newRq = generalDampingRef*newRq + (1-generalDampingRef)*s.rq[k]
		newRy = generalDampingRef*newRy + (1-generalDampingRef)*s.ry[k]
		maxDelta = math.Max(maxDelta, math.Abs(newRq-s.rq[k])/(1+math.Abs(newRq)))
		maxDelta = math.Max(maxDelta, math.Abs(newRy-s.ry[k])/(1+math.Abs(newRy)))
		s.rq[k], s.ry[k] = newRq, newRy
	}
	// Thread residence (A.9) and cycle times (A.10).
	for c := 0; c < P; c++ {
		if !active[c] {
			continue
		}
		if p.ProtocolProcessor {
			s.rw[c] = p.W[c]
		} else {
			// Early iterates can overshoot Uq past 1 before the rising
			// cycle times pull throughput back down (a closed network
			// always has a feasible fixed point). Clamp the denominator
			// during iteration; a genuinely saturated *solution* is
			// rejected after convergence.
			u := s.uq[c]
			if u > generalMaxUtil {
				u = generalMaxUtil
				stats.GuardTrips++
			}
			s.rw[c] = (p.W[c] + so[c]*s.qq[c]) / (1 - u)
		}
		newR := s.rw[c] + p.St + s.ry[c]
		for k, v := range p.V[c] {
			newR += v * (p.St + s.rq[k])
		}
		newR = generalDampingRef*newR + (1-generalDampingRef)*s.r[c]
		maxDelta = math.Max(maxDelta, math.Abs(newR-s.r[c])/(1+math.Abs(newR)))
		s.r[c] = newR
	}
	return maxDelta
}

// generalRef is the earlier General: damped iteration (0.5) with its
// own cap and error texts. It stopped when no quantity moved by 1e-10
// absolute, which at small time units (cycle times near 0.01) is a
// relative error of 1e-8 in the reference itself; it now stops when no
// quantity moves by 1e-14 of 1 plus its own magnitude.
func generalRef(p GeneralParams) (GeneralResult, error) {
	if err := p.Validate(); err != nil {
		return GeneralResult{}, err
	}
	so := p.normalizedSo()
	P := p.P

	active := make([]bool, P)
	for c := range p.V {
		for _, v := range p.V[c] {
			if v > 0 {
				active[c] = true
				break
			}
		}
	}

	s := &generalStateRef{
		r: make([]float64, P), x: make([]float64, P), rw: make([]float64, P),
		rq: make([]float64, P), ry: make([]float64, P),
		uq: make([]float64, P), uy: make([]float64, P),
		qq: make([]float64, P), qy: make([]float64, P),
	}

	// Initial guess: contention-free cycle times.
	for c := 0; c < P; c++ {
		if !active[c] {
			continue
		}
		s.r[c] = p.W[c] + 2*p.St + so[c]
		for k, v := range p.V[c] {
			s.r[c] += v * (p.St + so[k])
		}
	}
	for k := 0; k < P; k++ {
		s.rq[k], s.ry[k] = so[k], so[k]
	}

	var stats obs.SolveStats
	for iter := 0; iter < generalMaxIterRef; iter++ {
		stats.Iters = iter + 1
		maxDelta := generalSweepRef(p, so, active, s, &stats)
		stats.Residual = maxDelta
		// NaN poisons maxDelta and compares false against tol forever;
		// fail fast instead of spinning to the iteration cap.
		if math.IsNaN(maxDelta) || math.IsInf(maxDelta, 0) {
			err := fmt.Errorf("core: AMVA iteration diverged (delta = %v) at iteration %d", maxDelta, iter)
			return GeneralResult{}, err
		}
		if maxDelta < generalTolRef {
			stats.Converged = true
			for k := 0; k < P; k++ {
				if s.uq[k] >= generalMaxUtil {
					err := fmt.Errorf("core: node %d saturated at the fixed point (Uq = %v)", k, s.uq[k])
					return GeneralResult{}, err
				}
			}
			res := GeneralResult{
				R: s.r, X: s.x, Rw: s.rw, Rq: s.rq, Ry: s.ry,
				Qq: s.qq, Qy: s.qy, Uq: s.uq, Uy: s.uy,
				Solve: stats,
			}
			for c := 0; c < P; c++ {
				res.TotalX += s.x[c]
			}
			return res, nil
		}
	}
	err := fmt.Errorf("core: general model did not converge in %d iterations", generalMaxIterRef)
	return GeneralResult{}, err
}

// multithreadedRef is the earlier Multithreaded: damped iteration (0.3)
// on the per-thread throughput x, stepping infeasible iterates back to
// x/2. Its tolerance is 1e-15 instead of 1e-12 for the reason given at
// defaultFixedPointOptsRef (x is about 1e-3, so the old test was
// absolute).
func multithreadedRef(p Params, t int) (MultithreadedResult, error) {
	if err := p.Validate(); err != nil {
		return MultithreadedResult{}, err
	}
	if t < 1 {
		return MultithreadedResult{}, fmt.Errorf("core: thread count %d", t)
	}
	if p.ProtocolProcessor {
		return MultithreadedResult{}, fmt.Errorf("core: multithreaded model covers the interrupt machine only")
	}
	bound := 1 / (p.W + 2*p.So)
	solve := func(x float64) (MultithreadedResult, error) {
		lam := float64(t) * x
		a := lam * p.So
		uh := 2 * a
		if uh >= 0.999 {
			return MultithreadedResult{}, fmt.Errorf("core: handler load %v infeasible", uh)
		}
		rh := p.So * (1 + (p.C2-1)*a) / (1 - 2*a)
		if rh <= 0 {
			return MultithreadedResult{}, fmt.Errorf("core: negative handler response at load %v", uh)
		}
		weff := p.W / (1 - uh)
		centers := []mva.Center{
			{Name: "cpu", Kind: mva.Queueing, Demand: weff},
			{Name: "net+remote", Kind: mva.Delay, Demand: 2*p.St + 2*rh},
		}
		res, err := mva.Exact(centers, t)
		if err != nil {
			return MultithreadedResult{}, err
		}
		out := MultithreadedResult{XNode: res.X, XThread: res.X / float64(t), Rh: rh, HandlerUtil: uh, Bound: bound}
		if out.XThread > 0 {
			out.CycleTime = 1 / out.XThread
		}
		return out, nil
	}
	f := func(x float64) float64 {
		res, err := solve(x)
		if err != nil {
			return x / 2
		}
		return res.XThread
	}
	x0 := 1 / (p.W + 2*p.St + 2*p.So)
	x, _, err := dampedFixedPointRef(f, x0/float64(t), fixedPointOptsRef{Tol: 1e-15, MaxIter: 200000, Damping: 0.3})
	if err != nil {
		return MultithreadedResult{}, fmt.Errorf("core: multithreaded fixed point: %w", err)
	}
	res, err := solve(x)
	if err != nil {
		return MultithreadedResult{}, err
	}
	res.XThread = x
	res.XNode = float64(t) * x
	res.CycleTime = 1 / x
	res.CPUUtil = res.HandlerUtil + res.XNode*p.W
	if one, err := AllToAll(p); err == nil {
		res.SaturationThreads = one.R / (p.W + 2*p.So)
	}
	return res, nil
}
