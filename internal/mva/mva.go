// Package mva implements single-class closed queueing network analysis
// by mean value analysis: the exact MVA recursion and the two standard
// approximations, Bard's (used by the LoPC paper) and Schweitzer's.
//
// The LoPC model (internal/core) bakes Bard's approximation into its
// equations because it yields the paper's closed forms and rules of
// thumb. This package provides the reference solvers those
// approximations shortcut, so the ablation experiments can quantify
// what the simplification costs. The client-server work-pile maps
// directly onto a closed network (a delay center for the clients' work
// and round trips, plus one queueing center per server); exact MVA for
// it is the ground truth Bard approximates.
//
// The solvers follow Reiser & Lavenberg (exact MVA) and Lazowska et
// al., "Quantitative System Performance", chs. 6–7 (approximations).
package mva

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// Solver names reported through obs.SolveObserver.BeginSolve, one per
// iterative solver in this package (the exact recursions are not
// fixed-point iterations and are not observed).
const (
	SolverBard            = "mva.bard"
	SolverSchweitzer      = "mva.schweitzer"
	SolverMultiBard       = "mva.multibard"
	SolverMultiSchweitzer = "mva.multischweitzer"
)

// solveObserved brackets f with an observation on o, tolerating nil.
// f returns its result together with the solve stats so error paths
// still report iteration counts.
func solveObserved[T any](o obs.SolveObserver, name string, f func() (T, obs.SolveStats, error)) (T, error) {
	if o == nil {
		res, _, err := f()
		return res, err
	}
	done := o.BeginSolve(name)
	res, stats, err := f()
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	return res, err
}

// Kind classifies a service center.
type Kind int

const (
	// Queueing is a single-server FCFS/PS center: customers queue.
	Queueing Kind = iota
	// Delay is an infinite-server center: customers never queue (think
	// time, network latency, dedicated per-customer resources).
	Delay
)

func (k Kind) String() string {
	switch k {
	case Queueing:
		return "queueing"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Center is one service center of the network. Demand is the total
// service demand per customer cycle: visit count times service time per
// visit.
type Center struct {
	Name   string
	Kind   Kind
	Demand float64
}

// Result is the steady-state solution of a closed network with N
// customers.
type Result struct {
	// X is the system throughput (customer cycles per unit time).
	X float64
	// CycleTime is N/X, the mean time around the network.
	CycleTime float64
	// R[k] is the residence time at center k per cycle (queueing plus
	// service, summed over the cycle's visits).
	R []float64
	// Q[k] is the mean number of customers at center k.
	Q []float64
	// U[k] is the utilization of center k (demand flow; may exceed 1
	// only for Delay centers, where it is the mean population).
	U []float64
	// Solve describes the fixed-point iteration that produced this
	// result. It is zero for the exact (non-iterative) solver.
	Solve obs.SolveStats
}

// ErrInvalid is wrapped by every validation error: a network, demand or
// population no solver in this package accepts.
var ErrInvalid = errors.New("mva: invalid network")

// validDemand reports whether d is a usable service demand: finite and
// not negative.
func validDemand(d float64) bool { return d >= 0 && !math.IsInf(d, 1) }

func validate(centers []Center, n int) error {
	if len(centers) == 0 {
		return fmt.Errorf("%w: no service centers", ErrInvalid)
	}
	if n < 0 {
		return fmt.Errorf("%w: negative population %d", ErrInvalid, n)
	}
	total := 0.0
	for i, c := range centers {
		if !validDemand(c.Demand) {
			return fmt.Errorf("%w: center %d (%s) has demand %v", ErrInvalid, i, c.Name, c.Demand)
		}
		total += c.Demand
	}
	// N/ΣD bounds every throughput the solvers compute; with no demand
	// at all, or too little for it to be finite, there is no answer.
	if n > 0 && math.IsInf(float64(n)/total, 1) {
		return fmt.Errorf("%w: total demand %v gives no finite throughput at population %d", ErrInvalid, total, n)
	}
	return nil
}

// finish computes throughput, queue lengths and utilizations from
// residence times.
func finish(centers []Center, n int, r []float64) Result {
	total := 0.0
	for _, rk := range r {
		total += rk
	}
	res := Result{
		R: r,
		Q: make([]float64, len(centers)),
		U: make([]float64, len(centers)),
	}
	if total > 0 && n > 0 {
		res.X = float64(n) / total
	}
	res.CycleTime = total
	for k := range centers {
		res.Q[k] = res.X * r[k]
		res.U[k] = res.X * centers[k].Demand
	}
	return res
}

// Exact solves the network by the exact MVA recursion on population:
//
//	R_k(n) = D_k · (1 + Q_k(n−1))   (queueing centers)
//	R_k(n) = D_k                     (delay centers)
//	X(n)   = n / Σ_k R_k(n),  Q_k(n) = X(n)·R_k(n)
//
// Complexity O(n·K); exact for product-form networks.
func Exact(centers []Center, n int) (Result, error) {
	if err := validate(centers, n); err != nil {
		return Result{}, err
	}
	k := len(centers)
	q := make([]float64, k) // Q at population i-1
	r := make([]float64, k)
	for i := 1; i <= n; i++ {
		total := 0.0
		for j, c := range centers {
			if c.Kind == Delay {
				r[j] = c.Demand
			} else {
				r[j] = c.Demand * (1 + q[j])
			}
			total += r[j]
		}
		x := float64(i) / total
		for j := range centers {
			q[j] = x * r[j]
		}
	}
	if n == 0 {
		return finish(centers, 0, make([]float64, k)), nil
	}
	return finish(centers, n, r), nil
}

// approxSweep evaluates the single-class AMVA map once at trial cycle
// time c. An arriving customer sees the fraction s of a queueing
// center's time-average queue (Bard s = 1, Schweitzer s = (N−1)/N), so
// with throughput X = N/c Little's law makes the residence time
// R_j = D_j(1 + s·X·R_j) linear in R_j:
//
//	R_j = D_j / (1 − s·X·D_j)   (queueing)   R_j = D_j   (delay)
//
// The map returns the cycle time ΣR_j they add up to, writing them into
// r, or reports c infeasible when some s·X·D_j reaches 1. It falls as c
// grows, so the fixed point c = ΣR_j is the one sign change the scalar
// kernel brackets.
func approxSweep(centers []Center, n int, s, c float64, r []float64, stats *obs.SolveStats) (float64, bool) {
	x := float64(n) / c
	total := 0.0
	for j, ctr := range centers {
		r[j] = ctr.Demand
		if ctr.Kind == Queueing {
			u := x * ctr.Demand
			if s*u >= 1 {
				return 0, false
			}
			if u > stats.MaxUtil {
				stats.MaxUtil = u
			}
			r[j] /= 1 - s*u
		}
		total += r[j]
	}
	return total, true
}

// approximate runs the fixed-point AMVA in which an arriving customer
// sees the fraction s of each queueing center's time-average queue,
// solving for the cycle time on the scalar kernel. The returned stats
// are meaningful on every path, including errors.
func approximate(centers []Center, n int, s float64) (Result, obs.SolveStats, error) {
	var stats obs.SolveStats
	if err := validate(centers, n); err != nil {
		return Result{}, stats, err
	}
	if n == 0 {
		stats.Converged = true
		return finish(centers, 0, make([]float64, len(centers))), stats, nil
	}
	// Start between the bounds: no queueing at all (ΣD) plus the
	// bottleneck's share of a full queue.
	c0, dmax := 0.0, 0.0
	for _, ctr := range centers {
		c0 += ctr.Demand
		if ctr.Kind == Queueing {
			dmax = math.Max(dmax, ctr.Demand)
		}
	}
	c0 += s * float64(n) * dmax
	r := make([]float64, len(centers))
	c, fp, err := numeric.FixedPoint(func(c float64) (float64, bool) {
		return approxSweep(centers, n, s, c, r, &stats)
	}, c0, numeric.Unbracketed)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if _, ok := approxSweep(centers, n, s, c, r, &stats); err == nil && !ok {
		err = numeric.ErrNoConvergence
	}
	if err != nil {
		return Result{}, stats, fmt.Errorf("mva: approximation for n=%d: %w", n, err)
	}
	res := finish(centers, n, r)
	res.Solve = stats
	return res, stats, nil
}

// bardShare is the fraction of the time-average queue Bard's arriving
// customer sees: all of it, the full population included.
func bardShare(int) float64 { return 1 }

// schweitzerShare is Schweitzer's: (N−1)/N of it.
func schweitzerShare(n int) float64 { return float64(n-1) / float64(n) }

// Bard solves the network with Bard's approximation to the arrival
// theorem: an arriving customer sees the time-average queue with the
// full population N. This is the approximation the LoPC model uses; it
// slightly over-estimates queue lengths and response times, with the
// error vanishing as N grows.
func Bard(centers []Center, n int) (Result, error) {
	return BardObserved(centers, n, nil)
}

// BardObserved is Bard reporting the solve to o (which may be nil).
func BardObserved(centers []Center, n int, o obs.SolveObserver) (Result, error) {
	return solveObserved(o, SolverBard, func() (Result, obs.SolveStats, error) {
		return approximate(centers, n, bardShare(n))
	})
}

// Schweitzer solves the network with Schweitzer's approximation: an
// arriving customer sees (N−1)/N of the time-average queue. It is
// usually more accurate than Bard at small populations.
func Schweitzer(centers []Center, n int) (Result, error) {
	return SchweitzerObserved(centers, n, nil)
}

// SchweitzerObserved is Schweitzer reporting the solve to o (which may
// be nil).
func SchweitzerObserved(centers []Center, n int, o obs.SolveObserver) (Result, error) {
	return solveObserved(o, SolverSchweitzer, func() (Result, obs.SolveStats, error) {
		return approximate(centers, n, schweitzerShare(n))
	})
}

// WorkpileNetwork builds the closed network of the Chapter 6 work-pile:
// pc client customers cycle through a delay center (their own chunk
// work, two network trips, and the reply handler — none of which they
// queue for) and ps identical queueing centers (the servers), each
// visited with probability 1/ps and holding the request for so cycles.
func WorkpileNetwork(pc, ps int, w, st, so float64) []Center {
	centers := make([]Center, 0, ps+1)
	centers = append(centers, Center{
		Name: "client+net", Kind: Delay, Demand: w + 2*st + so,
	})
	for i := 0; i < ps; i++ {
		centers = append(centers, Center{
			Name: fmt.Sprintf("server%d", i), Kind: Queueing, Demand: so / float64(ps),
		})
	}
	return centers
}
