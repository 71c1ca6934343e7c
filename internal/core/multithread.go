package core

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// MultithreadedResult is the model's solution for the multithreaded
// extension: T computation threads per node hide request latency behind
// each other's work — the latency-tolerance technique of the Alewife
// machine the paper validates on. The paper's model fixes T = 1
// ("only one thread is assigned to each node", §5.1); this extension
// relaxes that.
type MultithreadedResult struct {
	// XNode is the node's cycle completion rate across its T threads.
	XNode float64
	// XThread is XNode/T; CycleTime is its reciprocal.
	XThread, CycleTime float64
	// Rh is the handler response time (requests and replies form one
	// FCFS class once several replies can queue).
	Rh float64
	// HandlerUtil is the CPU fraction consumed by handlers.
	HandlerUtil float64
	// CPUUtil is total CPU utilization: handlers plus threads.
	CPUUtil float64
	// Bound is the conservation-law throughput ceiling per node,
	// 1/(W + 2So): with enough threads the CPU never idles and every
	// cycle costs W locally plus two handlers machine-wide.
	Bound float64
	// SaturationThreads estimates the thread count at the knee of the
	// latency-hiding curve: T* ≈ R(1)/(W + 2So).
	SaturationThreads float64
	// Solve describes the fixed-point iteration on the cycle time that
	// produced this result.
	Solve obs.SolveStats
}

// Multithreaded solves the homogeneous all-to-all pattern with T
// threads per node.
//
// The derivation composes pieces already in this repository. Handlers
// from all classes merge into one priority FCFS stream of rate 2·T·x
// per node, giving the open-queue response Rh (as in the non-blocking
// model). The node's T threads then cycle through a two-center closed
// network: a queueing center for the CPU — whose effective demand is
// W/(1−Uh), the shadow-server account of handler preemption — and a
// delay center for the remote round trip 2St + 2Rh. Exact MVA on that
// network (internal/mva) yields the node throughput, and the handler
// rates it implies close the fixed point.
//
// At T = 1 this reproduces the Chapter 5 solver within a few percent
// (it trades BKT and the asymmetric reply queue for the simpler shadow
// server and merged queue, which multiple threads require anyway).
func Multithreaded(p Params, t int) (MultithreadedResult, error) {
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
	// solve evaluates the model at per-thread throughput x. It reports
	// false where the handler load leaves no positive handler response;
	// HandlerUtil is set either way, for the error.
	solve := func(x float64) (MultithreadedResult, bool) {
		lam := float64(t) * x // request (and reply) arrival rate per node
		a := lam * p.So
		out := MultithreadedResult{HandlerUtil: 2 * a, Bound: bound}
		if out.HandlerUtil >= 0.999 {
			return out, false
		}
		out.Rh = p.So * (1 + (p.C2-1)*a) / (1 - 2*a)
		if !(out.Rh > 0) {
			return out, false
		}
		out.XNode = exactTwoCenter(p.W/(1-out.HandlerUtil), 2*p.St+2*out.Rh, t)
		out.XThread = out.XNode / float64(t)
		if out.XThread > 0 {
			out.CycleTime = 1 / out.XThread
		}
		return out, true
	}

	// Solve on the cycle time c = 1/x: the map then has the kernel's
	// shape, infeasible (handler load past 0.999) below the fixed point
	// and decreasing above it.
	var stats obs.SolveStats
	f := func(c float64) (float64, bool) {
		res, ok := solve(1 / c)
		if !ok || !(res.XThread > 0) {
			stats.GuardTrips++
			return 0, false
		}
		stats.MaxUtil = max(stats.MaxUtil, res.HandlerUtil)
		return 1 / res.XThread, true
	}
	c0 := float64(t) * (p.W + 2*p.St + 2*p.So)
	c, fp, err := numeric.FixedPoint(f, c0, numeric.Unbracketed)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	x := 1 / c
	res, ok := solve(x)
	switch {
	case !ok && res.HandlerUtil >= 0.999:
		return MultithreadedResult{}, fmt.Errorf("core: handler load %v infeasible", res.HandlerUtil)
	case !ok:
		return MultithreadedResult{}, fmt.Errorf("core: no positive handler response at load %v", res.HandlerUtil)
	case err != nil:
		return MultithreadedResult{}, fmt.Errorf("core: multithreaded fixed point: %w", err)
	}
	res.XThread = x
	res.XNode = float64(t) * x
	res.CycleTime = c
	res.CPUUtil = res.HandlerUtil + res.XNode*p.W
	res.Solve = stats
	// Knee estimate from the single-thread cycle time.
	if one, err := AllToAll(p); err == nil {
		res.SaturationThreads = one.R / (p.W + 2*p.So)
	}
	return res, nil
}

// exactTwoCenter is the throughput exact MVA (mva.Exact) gives n
// customers cycling through one queueing center of demand d and one
// delay center of demand z: the same recursion in the same operation
// order, so the same bits, without the result slices mva.Exact
// allocates. Multithreaded calls it on every map evaluation.
func exactTwoCenter(d, z float64, n int) float64 {
	q, total := 0.0, 0.0
	for i := 1; i <= n; i++ {
		r := d * (1 + q)
		total = r + z
		q = float64(i) / total * r
	}
	return float64(n) / total
}
