package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// GeneralParams parameterizes the general LoPC model of Appendix A: one
// thread per node, arbitrary per-thread work, and an arbitrary
// visit-ratio matrix. It subsumes the homogeneous all-to-all model and
// the client-server model, and additionally supports "multi-hop"
// requests, where a request visits several nodes (sum of a row of V
// exceeding 1) before the single reply returns to the originator.
type GeneralParams struct {
	// P is the number of nodes (and threads).
	P int
	// W[c] is the mean local work between blocking requests for thread
	// c. Threads whose row of V is all zero are passive (they never
	// request; e.g. work-pile servers) and their W is ignored.
	W []float64
	// V[c][k] is the mean number of visits a request cycle of thread c
	// makes to the request handler on node k. For a simple blocking
	// request to a uniformly random peer, V[c][k] = 1/(P−1) for k ≠ c.
	// Multi-hop patterns have rows summing to more than 1.
	V [][]float64
	// St is the mean network latency per trip.
	St float64
	// So[k] is the mean handler cost at node k. A single-element slice
	// is broadcast to all nodes.
	So []float64
	// C2 is the squared coefficient of variation of handler service.
	C2 float64
	// ProtocolProcessor selects the shared-memory variant (Rw = W).
	ProtocolProcessor bool
}

// Validate reports whether the parameters are usable and normalizes
// nothing; use normalizedSo to expand So.
func (p GeneralParams) Validate() error {
	if p.P < 2 {
		return fmt.Errorf("core: general model needs P >= 2, got %d", p.P)
	}
	if len(p.W) != p.P {
		return fmt.Errorf("core: len(W) = %d, want P = %d", len(p.W), p.P)
	}
	if len(p.V) != p.P {
		return fmt.Errorf("core: len(V) = %d, want P = %d", len(p.V), p.P)
	}
	for c, row := range p.V {
		if len(row) != p.P {
			return fmt.Errorf("core: len(V[%d]) = %d, want P = %d", c, len(row), p.P)
		}
		for k, v := range row {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fmt.Errorf("core: V[%d][%d] = %v", c, k, v)
			}
		}
	}
	for c, w := range p.W {
		if !(w >= 0) || math.IsInf(w, 0) {
			return fmt.Errorf("core: W[%d] = %v", c, w)
		}
	}
	if len(p.So) != 1 && len(p.So) != p.P {
		return fmt.Errorf("core: len(So) = %d, want 1 or P = %d", len(p.So), p.P)
	}
	for k, so := range p.So {
		if !(so > 0) || math.IsInf(so, 0) {
			return fmt.Errorf("core: So[%d] = %v", k, so)
		}
	}
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	if !(p.St >= 0) || !(p.C2 >= 0) || math.IsInf(p.St, 0) || math.IsInf(p.C2, 0) {
		return fmt.Errorf("core: negative or non-finite St or C² in %+v", p)
	}
	return nil
}

// normalizedSo returns per-node handler costs.
func (p GeneralParams) normalizedSo() []float64 {
	if len(p.So) == p.P {
		return p.So
	}
	so := make([]float64, p.P)
	for i := range so {
		so[i] = p.So[0]
	}
	return so
}

// GeneralResult is the per-thread and per-node solution of the general
// model.
type GeneralResult struct {
	// R[c] is the mean compute/request cycle time of thread c (0 for
	// passive threads).
	R []float64
	// X[c] is the throughput of thread c: X = 1/R (Eq. A.1).
	X []float64
	// Rw[c] is the thread residence time including handler interference
	// (Eq. A.9).
	Rw []float64
	// Rq[k] and Ry[k] are request/reply handler response times at node
	// k (Eqs. A.7, A.8).
	Rq, Ry []float64
	// Qq[k] and Qy[k] are request/reply handler mean queue lengths at
	// node k (Eqs. A.5, A.6).
	Qq, Qy []float64
	// Uq[k] and Uy[k] are request/reply handler utilizations at node k
	// (Eqs. A.3, A.4).
	Uq, Uy []float64
	// TotalX is the summed throughput of all active threads.
	TotalX float64
	// Solve describes the fixed-point iteration that produced this
	// result: iteration count, final residual, utilization-clamp
	// guard trips, and the peak request-handler utilization visited.
	Solve obs.SolveStats
}

// generalState holds the vectors of the general AMVA solve, allocated
// once before the iteration starts so the sweep itself is
// allocation-free. z is the fixed-point unknown, the per-thread cycle
// times followed by the per-node request and reply handler response
// times; r, rq and ry are views of it. The rest are derived from z by
// each sweep.
type generalState struct {
	z, r, rq, ry []float64
	// x and rw are per-thread throughputs and residence times.
	x, rw []float64
	// uq, uy, qq, qy are the per-node handler utilizations and queue
	// lengths.
	uq, uy, qq, qy []float64
}

const (
	// generalDamping blends each sweep's new values with the old ones.
	// The blended sweep is the map the kernel accelerates: its fixed
	// points are the model's, and plain iteration on it is stable where
	// the undamped Jacobi sweep oscillates (a work-pile with few
	// servers).
	generalDamping = 0.5
	// generalMaxUtil caps the utilization used in the BKT denominator
	// while the iteration is still far from its fixed point.
	generalMaxUtil = 0.999999
)

// generalSweep evaluates one damped sweep of the Appendix A equations
// (A.1–A.10 with the §5.2 correction): from the cycle times and handler
// response times in s.z it derives throughputs, utilizations and queue
// lengths into s, and writes the next cycle times and response times
// into fz (laid out as s.z). The new response times are blended with
// the old before the cycle times use them, Gauss–Seidel style. It
// reports whether s.z is admissible: every request-handler utilization
// below 1 and no time negative.
func generalSweep(p GeneralParams, so []float64, active []bool, s *generalState, fz []float64, stats *obs.SolveStats) bool {
	P := p.P
	nr, nrq, nry := fz[:P], fz[P:2*P], fz[2*P:]
	admissible := true
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
		if s.uq[k] >= 1 || s.rq[k] < 0 || s.ry[k] < 0 || s.r[k] < 0 {
			admissible = false
		}
	}
	// Handler response times (A.7, A.8) with the §5.2 correction.
	for k := 0; k < P; k++ {
		rq := so[k] * (1 + s.qq[k] + s.qy[k] + (p.C2-1)/2*(s.uq[k]+s.uy[k]))
		ry := so[k] * (1 + s.qq[k] + (p.C2-1)/2*s.uq[k])
		nrq[k] = generalDamping*rq + (1-generalDamping)*s.rq[k]
		nry[k] = generalDamping*ry + (1-generalDamping)*s.ry[k]
	}
	// Thread residence (A.9) and cycle times (A.10).
	for c := 0; c < P; c++ {
		if !active[c] {
			nr[c] = 0
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
		newR := s.rw[c] + p.St + nry[c]
		for k, v := range p.V[c] {
			newR += v * (p.St + nrq[k])
		}
		nr[c] = generalDamping*newR + (1-generalDamping)*s.r[c]
	}
	return admissible
}

// General solves the Appendix A model by fixed-point iteration on the
// per-thread cycle times and per-node handler response times. It
// returns an error if the iteration cannot find a feasible solution
// (some node saturated).
func General(p GeneralParams) (GeneralResult, error) {
	return GeneralObserved(p, nil)
}

// GeneralObserved is General reporting the solve to o (which may be
// nil). The returned result's Solve field carries the same stats the
// observer sees; GuardTrips counts applications of the maxUtil clamp,
// and MaxUtil is the peak raw request-handler utilization any iterate
// visited (it can exceed 1 on early overshoot).
func GeneralObserved(p GeneralParams, o obs.SolveObserver) (GeneralResult, error) {
	if err := p.Validate(); err != nil {
		return GeneralResult{}, err
	}
	done := beginSolve(o, SolverGeneral)
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

	// All vectors are allocated here, once; the sweep itself must not
	// allocate (TestSteadyStateAllocs measures it).
	buf := make([]float64, 9*P)
	s := &generalState{
		z: buf[: 3*P : 3*P], r: buf[:P:P], rq: buf[P : 2*P : 2*P], ry: buf[2*P : 3*P : 3*P],
		x: buf[3*P : 4*P : 4*P], rw: buf[4*P : 5*P : 5*P],
		uq: buf[5*P : 6*P : 6*P], uy: buf[6*P : 7*P : 7*P],
		qq: buf[7*P : 8*P : 8*P], qy: buf[8*P:],
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
	fp, err := numeric.FixedPointVec(func(z, fz []float64) bool {
		return generalSweep(p, so, active, s, fz, &stats)
	}, s.z)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		err = fmt.Errorf("core: general fixed point: %w", err)
	} else {
		for k := 0; k < P; k++ {
			if s.uq[k] >= generalMaxUtil {
				err = fmt.Errorf("core: node %d saturated at the fixed point (Uq = %v)", k, s.uq[k])
				break
			}
		}
	}
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	if err != nil {
		return GeneralResult{}, err
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

// HomogeneousVisits returns the all-to-all visit matrix: each thread
// directs 1/(P−1) of its requests to each other node.
func HomogeneousVisits(p int) [][]float64 {
	v := make([][]float64, p)
	for c := range v {
		v[c] = make([]float64, p)
		for k := range v[c] {
			if k != c {
				v[c][k] = 1 / float64(p-1)
			}
		}
	}
	return v
}

// ClientServerVisits returns the work-pile visit matrix for a machine
// whose first pc nodes are clients and remaining ps nodes are servers:
// each client directs 1/ps of its requests to each server; servers are
// passive.
func ClientServerVisits(pc, ps int) [][]float64 {
	p := pc + ps
	v := make([][]float64, p)
	for c := range v {
		v[c] = make([]float64, p)
		if c < pc {
			for k := pc; k < p; k++ {
				v[c][k] = 1 / float64(ps)
			}
		}
	}
	return v
}

// MultiHopVisits returns a visit matrix where each request from node c
// is forwarded along hops uniformly random distinct intermediate nodes
// before the reply returns: every row sums to hops.
func MultiHopVisits(p, hops int) [][]float64 {
	v := make([][]float64, p)
	for c := range v {
		v[c] = make([]float64, p)
		for k := range v[c] {
			if k != c {
				v[c][k] = float64(hops) / float64(p-1)
			}
		}
	}
	return v
}
