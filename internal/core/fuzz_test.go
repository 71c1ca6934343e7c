package core

import (
	"fmt"
	"math"
	"strings"
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
// whose serialization-point utilization X·St must stay below 1. Where
// the damped reference failed but the model has a fixed point (checked
// by the sign of F(R) − R around it), the solve must find it.
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
		if err == nil && refErr != nil && lockFreeRootAt(params, res.R) {
			// A fixed point the damped reference crossed the retry-storm
			// guard on its way to (TestSolversMatchReference counts them).
			t.Logf("%s: reference: %v", what, refErr)
		} else {
			checkSolveMatches(t, what, res, err, ref, refErr)
		}
		if err != nil {
			return
		}
		checkLittle(t, what, res.U, res.X, res.R, params.Threads)
	})
}

// checkFinite fails t unless every value is finite.
func checkFinite(t *testing.T, what string, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: value %d of %v is not finite", what, i, vals)
		}
	}
}

// checkRel fails t unless got is within 1e-9 of want, relatively.
func checkRel(t *testing.T, what, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("%s: %s = %v, want %v", what, name, got, want)
	}
}

// FuzzNonBlocking: the non-blocking solver rejects its input or returns
// a finite solution on the conservation-law throughput X = 1/(W + 2So)
// (1/W with the protocol processor), with Latency = 2St + Rq + Ry,
// Outstanding = X·Latency (Little's law) and handler utilization in
// [0, 1).
func FuzzNonBlocking(f *testing.F) {
	f.Add(32, 1000.0, 40.0, 200.0, 0.0, false)
	f.Add(2, 0.0, 0.0, 1.0, 1.0, false)
	f.Add(64, 1000.0, 10.0, 100.0, 4.0, true)
	f.Add(8, 300.0, 40.0, 200.0, 1.0, true)
	f.Add(16, 6e307, 1.0, 6e307, 0.0, false)
	f.Fuzz(func(t *testing.T, p int, w, st, so, c2 float64, pp bool) {
		params := Params{P: p, W: w, St: st, So: so, C2: c2, ProtocolProcessor: pp}
		res, err := NonBlocking(params)
		if err != nil {
			return
		}
		what := fmt.Sprintf("NonBlocking(%+v)", params)
		checkFinite(t, what, res.X, res.CycleTime, res.Rq, res.Ry, res.Latency, res.Outstanding, res.HandlerUtil)
		if pp {
			checkRel(t, what, "X·W", res.X*w, 1)
		} else {
			checkRel(t, what, "X·(W+2So)", res.X*(w+2*so), 1)
		}
		checkRel(t, what, "CycleTime·X", res.CycleTime*res.X, 1)
		checkRel(t, what, "Latency", res.Latency, 2*st+res.Rq+res.Ry)
		checkRel(t, what, "Outstanding", res.Outstanding, res.X*res.Latency)
		if !(res.HandlerUtil >= 0 && res.HandlerUtil < 1) {
			t.Fatalf("%s: handler utilization %v outside [0, 1)", what, res.HandlerUtil)
		}
	})
}

// FuzzMultithreaded: the multithreaded solver rejects its input or
// returns a finite solution under the conservation bound
// XNode <= 1/(W + 2So), with XThread·T = XNode, CycleTime = 1/XThread,
// handler utilization in [0, 1) and CPU utilization at most 1. Thread
// counts above 64 are folded into 1..64: each evaluation runs exact
// MVA over the node's T threads.
func FuzzMultithreaded(f *testing.F) {
	f.Add(32, 1, 256.0, 40.0, 200.0, 0.0)
	f.Add(32, 4, 1024.0, 40.0, 200.0, 1.0)
	f.Add(2, 8, 0.0, 0.0, 1.0, 0.0)
	f.Add(64, 64, 10.0, 100.0, 50.0, 4.0)
	f.Add(8, 0, 1000.0, 40.0, 200.0, 0.0)
	f.Fuzz(func(t *testing.T, p, threads int, w, st, so, c2 float64) {
		if threads > 64 {
			threads = 1 + threads%64
		}
		params := Params{P: p, W: w, St: st, So: so, C2: c2}
		res, err := Multithreaded(params, threads)
		if err != nil {
			return
		}
		what := fmt.Sprintf("Multithreaded(%+v, T=%d)", params, threads)
		checkFinite(t, what, res.XNode, res.XThread, res.CycleTime, res.Rh, res.HandlerUtil, res.CPUUtil, res.Bound)
		checkRel(t, what, "Bound", res.Bound, 1/(w+2*so))
		if res.XNode > res.Bound*(1+1e-9) {
			t.Fatalf("%s: XNode %v above the conservation bound %v", what, res.XNode, res.Bound)
		}
		checkRel(t, what, "XThread·T", res.XThread*float64(threads), res.XNode)
		checkRel(t, what, "CycleTime", res.CycleTime, 1/res.XThread)
		if !(res.HandlerUtil >= 0 && res.HandlerUtil < 1) {
			t.Fatalf("%s: handler utilization %v outside [0, 1)", what, res.HandlerUtil)
		}
		if res.CPUUtil > 1+1e-9 {
			t.Fatalf("%s: CPU utilization %v above 1", what, res.CPUUtil)
		}
	})
}

// generalFuzzParams maps fuzz arguments onto a general model: P in
// [2, 32], and one of four shapes (shape mod 4): the homogeneous
// all-to-all visits, a work-pile split with P/4 servers, two-hop
// requests, or homogeneous visits with per-thread work spread linearly
// from w to w·(1+spread). homogeneous reports the first shape, which
// must reduce to AllToAll.
func generalFuzzParams(p int, shape uint8, w, st, so, c2, spread float64, pp bool) (params GeneralParams, homogeneous bool) {
	if p < 0 {
		p = -(p + 1)
	}
	n := 2 + p%31
	params = GeneralParams{P: n, W: uniformW(n, w), St: st, So: []float64{so}, C2: c2, ProtocolProcessor: pp}
	switch shape % 4 {
	case 0:
		params.V, homogeneous = HomogeneousVisits(n), true
	case 1:
		ps := 1 + n/4
		params.V = ClientServerVisits(n-ps, ps)
	case 2:
		params.V = MultiHopVisits(n, 2)
	default:
		params.V = HomogeneousVisits(n)
		for c := range params.W {
			params.W[c] = w * (1 + spread*float64(c)/float64(n))
		}
	}
	return params, homogeneous
}

// FuzzGeneral: the Appendix A solver rejects its input or returns a
// solution that satisfies Eq. A.10 (each cycle time is its residence,
// reply and request components), keeps every request-handler
// utilization below 1, and has X·R = 1 for every active thread; it
// agrees with the damped reference within refTol, failing exactly when
// the reference fails; and the homogeneous shape reduces to AllToAll
// within 1e-9.
func FuzzGeneral(f *testing.F) {
	f.Add(16, uint8(0), 700.0, 40.0, 200.0, 0.0, 0.0, false)
	f.Add(16, uint8(0), 0.0, 0.0, 200.0, 1.0, 0.0, true)
	f.Add(8, uint8(1), 1500.0, 40.0, 131.0, 0.0, 0.0, false)
	f.Add(30, uint8(2), 300.0, 5.0, 50.0, 2.0, 0.0, false)
	f.Add(12, uint8(3), 100.0, 20.0, 80.0, 0.5, 9.0, false)
	f.Add(2, uint8(0), 0.0, 0.0, 1.0, 4.0, 0.0, false)
	f.Fuzz(func(t *testing.T, p int, shape uint8, w, st, so, c2, spread float64, pp bool) {
		params, homogeneous := generalFuzzParams(p, shape, w, st, so, c2, spread, pp)
		res, err := General(params)
		ref, refErr := generalRef(params)
		what := fmt.Sprintf("General(P=%d shape=%d W[0]=%v St=%v So=%v C²=%v spread=%v pp=%v)",
			params.P, shape%4, w, st, so, c2, spread, pp)
		if err == nil && refErr != nil && strings.Contains(refErr.Error(), "did not converge") {
			// The damped reference oscillated until its budget ran out;
			// the accelerated solve must then stand on the invariants.
			t.Logf("%s: reference: %v", what, refErr)
		} else {
			checkSolveMatches(t, what, res, err, ref, refErr)
		}
		if err != nil {
			return
		}
		for c := 0; c < params.P; c++ {
			if res.X[c] <= 0 { // a passive thread
				continue
			}
			sum := res.Rw[c] + params.St + res.Ry[c]
			for k, v := range params.V[c] {
				sum += v * (params.St + res.Rq[k])
			}
			if math.Abs(sum-res.R[c]) > 1e-9*(1+res.R[c]) {
				t.Fatalf("%s: A.10 violated for thread %d: components %v, R %v", what, c, sum, res.R[c])
			}
			if math.Abs(res.X[c]*res.R[c]-1) > 1e-12 {
				t.Fatalf("%s: X·R = %v for thread %d, want 1", what, res.X[c]*res.R[c], c)
			}
		}
		for k, u := range res.Uq {
			if !(u >= 0 && u < 1) {
				t.Fatalf("%s: Uq[%d] = %v outside [0, 1)", what, k, u)
			}
		}
		if !homogeneous {
			return
		}
		hp := Params{P: params.P, W: w, St: st, So: so, C2: c2, ProtocolProcessor: pp}
		want, err := AllToAll(hp)
		if err != nil {
			t.Fatalf("%s solved, but AllToAll(%+v): %v", what, hp, err)
		}
		for c, r := range res.R {
			if math.Abs(r-want.R) > 1e-9*want.R {
				t.Fatalf("%s: R[%d] = %v, AllToAll R = %v", what, c, r, want.R)
			}
		}
	})
}
