package core

import (
	"fmt"
	"math"
	"testing"
)

// FuzzAllToAll drives the homogeneous solver with arbitrary parameters:
// it must either reject them with an error or return a solution
// satisfying the model's own invariants — never panic, never NaN — and
// it must agree bit for bit, error text included, with the reference
// solver of step_ref_test.go.
func FuzzAllToAll(f *testing.F) {
	f.Add(32, 512.0, 40.0, 200.0, 0.0)
	f.Add(2, 0.0, 0.0, 1.0, 0.0)
	f.Add(1024, 1e6, 1e3, 1e4, 2.0)
	f.Add(32, 0.0, 40.0, 200.0, 1.0)
	f.Add(3, 1.5, 0.25, 0.125, 0.5)
	f.Fuzz(func(t *testing.T, p int, w, st, so, c2 float64) {
		params := Params{P: p, W: w, St: st, So: so, C2: c2}
		res, err := AllToAll(params)
		ref, refErr := allToAllRef(params)
		checkSolveMatches(t, fmt.Sprintf("AllToAll(%+v)", params), res, err, ref, refErr)
		if err != nil {
			return // rejected input is fine
		}
		if math.IsNaN(res.R) || math.IsInf(res.R, 0) {
			t.Fatalf("non-finite R for %+v", params)
		}
		if res.R < params.ContentionFree()-1e-6*res.R {
			t.Fatalf("R %v below contention-free %v for %+v", res.R, params.ContentionFree(), params)
		}
		if res.R > res.UpperBound*(1+1e-9) {
			t.Fatalf("R %v above upper bound %v for %+v", res.R, res.UpperBound, params)
		}
		sum := res.Rw + 2*params.St + res.Rq + res.Ry
		if math.Abs(sum-res.R) > 1e-6*(1+res.R) {
			t.Fatalf("decomposition violated for %+v: %v vs %v", params, sum, res.R)
		}
	})
}

// FuzzClientServer: same contract for the work-pile solver, including
// the reference comparison.
func FuzzClientServer(f *testing.F) {
	f.Add(32, 8, 1500.0, 40.0, 131.0, 0.0)
	f.Add(2, 1, 0.0, 0.0, 1.0, 0.0)
	f.Add(64, 63, 1e5, 10.0, 5.0, 3.0)
	f.Fuzz(func(t *testing.T, p, ps int, w, st, so, c2 float64) {
		params := ClientServerParams{P: p, Ps: ps, W: w, St: st, So: so, C2: c2}
		res, err := ClientServer(params)
		ref, refErr := clientServerRef(params)
		checkSolveMatches(t, fmt.Sprintf("ClientServer(%+v)", params), res, err, ref, refErr)
		if err != nil {
			return
		}
		if math.IsNaN(res.X) || res.X < 0 {
			t.Fatalf("bad X %v for %+v", res.X, params)
		}
		server, client := ClientServerBounds(params)
		if res.X > math.Min(server, client)*(1+1e-9) {
			t.Fatalf("X %v above optimistic bounds (%v, %v) for %+v", res.X, server, client, params)
		}
		if res.Us < 0 || res.Us >= 1 {
			t.Fatalf("utilization %v out of range for %+v", res.Us, params)
		}
	})
}

// checkLittle fails t unless the solution's utilization is below 1 and
// its throughput and cycle time satisfy Little's law for the closed
// population: X·R = N.
func checkLittle(t *testing.T, what string, u, x, r float64, n int) {
	t.Helper()
	if !(u >= 0 && u < 1) {
		t.Fatalf("%s: utilization %v outside [0, 1)", what, u)
	}
	if math.Abs(x*r-float64(n)) > 1e-9*float64(n) {
		t.Fatalf("%s: X·R = %v, want N = %d", what, x*r, n)
	}
}

// FuzzLock: the lock solver rejects its input or returns a solution
// with lock utilization below 1 and X·R = Threads, agreeing bit for bit
// with the reference.
func FuzzLock(f *testing.F) {
	f.Add(8, 1000.0, 10.0, 100.0, 1.0)
	f.Add(1, 0.0, 0.0, 1.0, 0.0)
	f.Add(256, 10.0, 1.0, 50.0, 4.0)
	f.Add(64, 0.0, 0.0, 1000.0, 0.0)
	f.Fuzz(func(t *testing.T, threads int, w, st, so, c2 float64) {
		params := LockParams{Threads: threads, W: w, St: st, So: so, C2: c2}
		res, err := Lock(params)
		ref, refErr := lockRef(params)
		what := fmt.Sprintf("Lock(%+v)", params)
		checkSolveMatches(t, what, res, err, ref, refErr)
		if err != nil {
			return
		}
		checkLittle(t, what, res.U, res.X, res.R, params.Threads)
	})
}

// FuzzLockFree: the same contract for the CAS-retry conflict model,
// whose serialization-point utilization X·St must stay below 1.
func FuzzLockFree(f *testing.F) {
	f.Add(8, 1000.0, 10.0, 100.0, 1.0)
	f.Add(1, 0.0, 0.0, 1.0, 0.0)
	f.Add(16, 500.0, 0.0, 20.0, 0.0)
	f.Add(64, 100.0, 5.0, 50.0, 4.0)
	f.Fuzz(func(t *testing.T, threads int, w, st, so, c2 float64) {
		params := LockFreeParams{Threads: threads, W: w, St: st, So: so, C2: c2}
		res, err := LockFree(params)
		ref, refErr := lockFreeRef(params)
		what := fmt.Sprintf("LockFree(%+v)", params)
		checkSolveMatches(t, what, res, err, ref, refErr)
		if err != nil {
			return
		}
		checkLittle(t, what, res.U, res.X, res.R, params.Threads)
	})
}
