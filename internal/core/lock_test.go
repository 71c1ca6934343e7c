package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

func TestLockValidate(t *testing.T) {
	bad := []LockParams{
		{Threads: 0, W: 1, St: 1, So: 1},
		{Threads: 4, W: -1, St: 1, So: 1},
		{Threads: 4, W: 1, St: -1, So: 1},
		{Threads: 4, W: 1, St: 1, So: 0},
		{Threads: 4, W: 1, St: 1, So: -2},
		{Threads: 4, W: 1, St: 1, So: 1, C2: -1},
		{Threads: 4, W: math.NaN(), St: 1, So: 1},
		{Threads: 4, W: math.Inf(1), St: 1, So: 1},
	}
	for _, p := range bad {
		if _, err := Lock(p); err == nil {
			t.Errorf("Lock(%+v) accepted invalid params", p)
		}
	}
}

func TestLockFreeValidate(t *testing.T) {
	bad := []LockFreeParams{
		{Threads: 0, W: 1, St: 1, So: 1},
		{Threads: 4, W: -1, St: 1, So: 1},
		{Threads: 4, W: 1, St: -1, So: 1},
		{Threads: 4, W: 1, St: 1, So: 0},
		{Threads: 4, W: 1, St: 1, So: 1, C2: math.NaN()},
		{Threads: 4, W: 1, St: math.Inf(1), So: 1},
	}
	for _, p := range bad {
		if _, err := LockFree(p); err == nil {
			t.Errorf("LockFree(%+v) accepted invalid params", p)
		}
	}
}

// TestLockSingleThread: with one thread there is no contention and the
// Schweitzer correction must make the fixed point exact: Rs = So,
// R = W + 2St + So, X = 1/R.
func TestLockSingleThread(t *testing.T) {
	p := LockParams{Threads: 1, W: 500, St: 40, So: 100, C2: 1}
	res, err := Lock(p)
	if err != nil {
		t.Fatal(err)
	}
	wantR := p.W + 2*p.St + p.So
	if math.Abs(res.Rs-p.So) > 1e-6 {
		t.Errorf("Rs = %v, want exactly So = %v", res.Rs, p.So)
	}
	if math.Abs(res.R-wantR) > 1e-6 {
		t.Errorf("R = %v, want %v", res.R, wantR)
	}
	if math.Abs(res.X-1/wantR)/(1/wantR) > 1e-6 {
		t.Errorf("X = %v, want %v", res.X, 1/wantR)
	}
	if res.Wait > 1e-6 {
		t.Errorf("Wait = %v, want ~0 with one thread", res.Wait)
	}
}

// TestLockMonotoneInThreads: more threads never decrease throughput
// (the lock is the only shared resource, so extra threads can only add
// useful work or queue) and never decrease the cycle time.
func TestLockMonotoneInThreads(t *testing.T) {
	p := LockParams{W: 800, St: 20, So: 100, C2: 1}
	prevX, prevR := 0.0, 0.0
	for n := 1; n <= 64; n *= 2 {
		p.Threads = n
		res, err := Lock(p)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		if res.X < prevX-1e-9 {
			t.Errorf("Threads=%d: X dropped %v -> %v", n, prevX, res.X)
		}
		if res.R < prevR-1e-9 {
			t.Errorf("Threads=%d: R dropped %v -> %v", n, prevR, res.R)
		}
		prevX, prevR = res.X, res.R
	}
}

// TestLockBoundsRespected: the solved throughput never exceeds either
// optimistic bound, and approaches the serialization bound 1/So under
// heavy contention.
func TestLockBoundsRespected(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		p := LockParams{Threads: n, W: 400, St: 10, So: 100, C2: 1}
		res, err := Lock(p)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		serial, unc := LockBounds(p)
		if res.X > math.Min(serial, unc)+1e-9 {
			t.Errorf("Threads=%d: X=%v exceeds min(%v, %v)", n, res.X, serial, unc)
		}
	}
	// At 64 threads with W+2St far below 64·So the lock saturates.
	res, err := Lock(LockParams{Threads: 64, W: 400, St: 10, So: 100, C2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.X < 0.95*(1.0/100) {
		t.Errorf("saturated X = %v, want near 1/So = 0.01", res.X)
	}
}

// TestLockDegeneratesToUncontended: as So shrinks the model collapses
// onto the uncontended bound Threads/(W+2St+So).
func TestLockDegeneratesToUncontended(t *testing.T) {
	p := LockParams{Threads: 16, W: 1000, St: 50, C2: 1}
	for _, so := range []float64{10, 1, 0.1, 0.01} {
		p.So = so
		res, err := Lock(p)
		if err != nil {
			t.Fatalf("So=%v: %v", so, err)
		}
		_, unc := LockBounds(p)
		rel := math.Abs(res.X-unc) / unc
		// Contention scales with utilization ≈ 16·So/(W+2St); at So=10
		// that is ~15%, and it shrinks linearly below.
		if tol := 2 * 16 * so / (p.W + 2*p.St); rel > tol {
			t.Errorf("So=%v: X=%v vs uncontended %v (rel %v > tol %v)", so, res.X, unc, rel, tol)
		}
	}
}

// TestLockVariabilityHurts: larger critical-section SCV increases the
// lock response, mirroring the work-pile's (C²−1)/2·U term.
func TestLockVariabilityHurts(t *testing.T) {
	base := LockParams{Threads: 8, W: 500, St: 20, So: 100}
	var prev float64
	for i, c2 := range []float64{0, 1, 4} {
		base.C2 = c2
		res, err := Lock(base)
		if err != nil {
			t.Fatalf("C2=%v: %v", c2, err)
		}
		if i > 0 && res.Rs <= prev {
			t.Errorf("C2=%v: Rs=%v not above Rs=%v at smaller C2", c2, res.Rs, prev)
		}
		prev = res.Rs
	}
}

// TestLockFreeSingleThread: one thread never conflicts, so the cycle is
// exactly W + So + St.
func TestLockFreeSingleThread(t *testing.T) {
	p := LockFreeParams{Threads: 1, W: 300, St: 10, So: 50, C2: 1}
	res, err := LockFree(p)
	if err != nil {
		t.Fatal(err)
	}
	wantR := p.W + p.So + p.St
	if math.Abs(res.R-wantR) > 1e-6 {
		t.Errorf("R = %v, want %v", res.R, wantR)
	}
	if res.Conflict > 1e-9 {
		t.Errorf("Conflict = %v, want 0 with one thread", res.Conflict)
	}
	if math.Abs(res.Attempts-1) > 1e-9 {
		t.Errorf("Attempts = %v, want 1", res.Attempts)
	}
}

// TestLockFreeConflictGrowsWithThreads: adding threads raises the
// competing commit rate, hence the conflict probability and the attempt
// multiplier.
func TestLockFreeConflictGrowsWithThreads(t *testing.T) {
	p := LockFreeParams{W: 400, St: 5, So: 60, C2: 1}
	prevQ := -1.0
	for n := 1; n <= 32; n *= 2 {
		p.Threads = n
		res, err := LockFree(p)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		if res.Conflict <= prevQ {
			t.Errorf("Threads=%d: Conflict=%v not above %v", n, res.Conflict, prevQ)
		}
		if res.Attempts < 1 {
			t.Errorf("Threads=%d: Attempts=%v < 1", n, res.Attempts)
		}
		prevQ = res.Conflict
	}
}

// TestLockFreeBoundsRespected: throughput never exceeds the commit
// serialization bound or the conflict-free bound.
func TestLockFreeBoundsRespected(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		p := LockFreeParams{Threads: n, W: 200, St: 20, So: 40, C2: 1}
		res, err := LockFree(p)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		serial, free := LockFreeBounds(p)
		if res.X > math.Min(serial, free)+1e-9 {
			t.Errorf("Threads=%d: X=%v exceeds min(%v, %v)", n, res.X, serial, free)
		}
	}
}

// TestLockFreeWindowShape: at equal mean window length, higher SCV
// lowers the conflict probability at a fixed commit rate (the Laplace
// transform of a longer-tailed window decays more slowly), matching
// Atalar et al.'s observation that variability softens conflicts.
func TestLockFreeWindowShape(t *testing.T) {
	lam, so := 0.01, 50.0
	qDet := lockFreeConflict(lam, so, 0)
	qExp := lockFreeConflict(lam, so, 1)
	qHyp := lockFreeConflict(lam, so, 4)
	if !(qDet > qExp && qExp > qHyp) {
		t.Errorf("conflict ordering violated: det=%v exp=%v hyper=%v", qDet, qExp, qHyp)
	}
	// Exponential window: q = λ·So/(1+λ·So) exactly.
	want := lam * so / (1 + lam*so)
	if math.Abs(qExp-want) > 1e-12 {
		t.Errorf("exponential-window conflict = %v, want %v", qExp, want)
	}
}

// TestLockFreeRetryStormGuard: the retry-storm guard reports a
// property of the model, not of the iteration. Zero parallel work and a
// long window with 1024 threads looks like a storm, but the model has a
// fixed point at conflict ≈ 0.995, below maxConflict: bisection of
// g(R) = F(R) − R over the feasible region finds the root the solver
// returns. With 10000 threads even the storm edge (conflict =
// maxConflict) has F(R) < R, and F falls as R grows, so no fixed point
// lies below the guard and the solve must fail with its reason.
func TestLockFreeRetryStormGuard(t *testing.T) {
	p := LockFreeParams{Threads: 1024, W: 0, St: 0.0001, So: 100, C2: 0}
	res, err := LockFree(p)
	if err != nil {
		t.Fatalf("LockFree(%+v): %v", p, err)
	}
	if res.Conflict >= maxConflict || res.Conflict < 0.99 {
		t.Errorf("conflict %v, want in [0.99, %v)", res.Conflict, maxConflict)
	}
	n := float64(p.Threads)
	// The storm edge: conflict reaches maxConflict where
	// λ·So = −ln(1 − maxConflict), λ = (n−1)/R.
	edge := (n - 1) * p.So / -math.Log(1-maxConflict)
	g := func(r float64) float64 {
		it, guard := lockFreeStep(p, n, r)
		if guard != guardNone {
			t.Fatalf("guard %d at R=%v, inside the feasible region", guard, r)
		}
		return it.rNext - r
	}
	lo, hi := edge*(1+1e-9), 4*res.R
	if g(lo) <= 0 || g(hi) >= 0 {
		t.Fatalf("g does not change sign on [%v, %v]: %v, %v", lo, hi, g(lo), g(hi))
	}
	root, err := numeric.Bisect(g, lo, hi, 1e-9*res.R)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-res.R) > 1e-8*res.R || res.R < 1.2*edge {
		t.Errorf("solver R %v, bisected root %v, storm edge %v", res.R, root, edge)
	}

	storm := LockFreeParams{Threads: 10000, W: 0, St: 0, So: 1, C2: 0}
	var c capture
	if _, err := LockFreeObserved(storm, &c); err == nil || !strings.Contains(err.Error(), "retry storm") {
		t.Errorf("LockFree(%+v) = %v, want the retry-storm guard", storm, err)
	}
	if c.stats.Iters > 200 {
		t.Errorf("storm solve took %d iterations, want at most 200", c.stats.Iters)
	}
}

// TestLockFreeInfeasibleFailsFast: over random draws (Threads 2–256,
// W ≤ 5000, St ≤ 50, So ≤ 500, C² ≤ 4), about a third of the lock-free
// inputs have no fixed point: the commit point saturates (X·St ≥ 1) at
// every R where F is defined. Each such solve must end, within 200 map
// evaluations, with the guard that names the cause, never with
// ErrNoConvergence, and F(R) < R just past the guard edge it reports.
func TestLockFreeInfeasibleFailsFast(t *testing.T) {
	r := rng.New(7)
	failures, maxIters := 0, 0
	check := func(p LockFreeParams) {
		var c capture
		res, err := LockFreeObserved(p, &c)
		if err == nil {
			if !res.Solve.Converged || res.Solve.Iters > 200 {
				t.Errorf("LockFree(%+v): %+v", p, res.Solve)
			}
			return
		}
		failures++
		maxIters = max(maxIters, c.stats.Iters)
		what := fmt.Sprintf("LockFree(%+v)", p)
		if errors.Is(err, numeric.ErrNoConvergence) || c.stats.Iters > 200 {
			t.Errorf("%s: %v after %d iterations; want a guard within 200", what, err, c.stats.Iters)
		}
		_, at, ok := strings.Cut(err.Error(), "at R=")
		edge, perr := strconv.ParseFloat(strings.TrimSuffix(strings.Fields(at)[0], ";"), 64)
		if !ok || perr != nil {
			t.Fatalf("%s: error %q names no R", what, err)
		}
		past := edge * (1 + 1e-9)
		it, g := lockFreeStep(p, float64(p.Threads), past)
		if g != guardNone || it.rNext >= past {
			t.Errorf("%s: %v, but past the edge (R=%v) guard=%d F=%v", what, err, past, g, it.rNext)
		}
	}
	check(LockFreeParams{Threads: 250, W: 1771, St: 17.1, So: 12.1, C2: 2.65})
	if failures != 1 {
		t.Fatal("the saturated example solved")
	}
	for i := 0; i < 400; i++ {
		check(LockFreeParams{
			Threads: 2 + int(r.Uint64()%255),
			W:       5000 * r.Float64(),
			St:      50 * r.Float64(),
			So:      500 * r.Float64(),
			C2:      4 * r.Float64(),
		})
	}
	t.Logf("%d of 401 draws infeasible, the slowest failing in %d iterations", failures, maxIters)
	if failures < 50 {
		t.Errorf("only %d infeasible draws; the failure path went unexercised", failures)
	}
}

// TestLockSolveStats: the results carry converged traces, the observer
// sees the named solvers, and observation does not perturb the solve.
func TestLockSolveStats(t *testing.T) {
	var c capture
	lp := LockParams{Threads: 8, W: 500, St: 20, So: 100, C2: 1}
	res, err := LockObserved(lp, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solve.Converged || res.Solve.Iters == 0 {
		t.Errorf("solve stats not populated: %+v", res.Solve)
	}
	if c.calls != 1 || c.solver != SolverLock {
		t.Errorf("observer saw %d calls for solver %q, want 1 for %q", c.calls, c.solver, SolverLock)
	}
	if c.stats != res.Solve {
		t.Errorf("observer stats %+v differ from result.Solve %+v", c.stats, res.Solve)
	}
	plain, err := Lock(lp)
	if err != nil {
		t.Fatal(err)
	}
	//lopc:allow floateq observed and unobserved solves run the identical iteration and must agree bit-for-bit
	if plain != res {
		t.Errorf("observation changed the solve: %+v vs %+v", plain, res)
	}

	var cf capture
	lf, err := LockFreeObserved(LockFreeParams{Threads: 8, W: 500, St: 5, So: 50, C2: 1}, &cf)
	if err != nil {
		t.Fatal(err)
	}
	if !lf.Solve.Converged {
		t.Errorf("lock-free solve did not converge: %+v", lf.Solve)
	}
	if cf.calls != 1 || cf.solver != SolverLockFree {
		t.Errorf("observer saw %d calls for solver %q, want 1 for %q", cf.calls, cf.solver, SolverLockFree)
	}
}
