package mva

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// MultiParams describes a multiclass closed queueing network: C
// customer classes with populations N[c], each with its own total
// demand Demand[c][k] at center k. The reference the LoPC paper builds
// on — Bard, "Some Extensions to Multiclass Queueing Network Analysis"
// — is exactly this setting; the single-class solvers in this package
// are its C = 1 case.
type MultiParams struct {
	// Centers lists the service centers (Kind is used; Demand on the
	// Center struct is ignored in the multiclass API).
	Centers []Center
	// Demand[c][k] is class c's total service demand per cycle at
	// center k.
	Demand [][]float64
	// N[c] is the population of class c.
	N []int
}

func (p MultiParams) validate() error {
	if len(p.Centers) == 0 {
		return fmt.Errorf("%w: no service centers", ErrInvalid)
	}
	if len(p.Demand) != len(p.N) {
		return fmt.Errorf("%w: %d demand rows for %d classes", ErrInvalid, len(p.Demand), len(p.N))
	}
	if len(p.N) == 0 {
		return fmt.Errorf("%w: no classes", ErrInvalid)
	}
	for c, row := range p.Demand {
		if len(row) != len(p.Centers) {
			return fmt.Errorf("%w: class %d has %d demands for %d centers", ErrInvalid, c, len(row), len(p.Centers))
		}
		for k, d := range row {
			if !validDemand(d) {
				return fmt.Errorf("%w: demand[%d][%d] = %v", ErrInvalid, c, k, d)
			}
		}
	}
	for c, n := range p.N {
		if n < 0 {
			return fmt.Errorf("%w: N[%d] = %d", ErrInvalid, c, n)
		}
	}
	return nil
}

// MultiResult is the multiclass steady-state solution.
type MultiResult struct {
	// X[c] is class c's throughput.
	X []float64
	// R[c][k] is class c's residence time at center k per cycle.
	R [][]float64
	// Q[c][k] is the mean number of class-c customers at center k.
	Q [][]float64
	// QTotal[k] is the mean total population at center k.
	QTotal []float64
	// CycleTime[c] is class c's cycle time N[c]/X[c].
	CycleTime []float64
	// Solve describes the fixed-point iteration that produced this
	// result. It is zero for the exact (non-iterative) solver.
	Solve obs.SolveStats
}

// popIndex maps a population vector to a dense index for memoization,
// with strides over (N[c]+1).
type popIndex struct {
	strides []int
	size    int
}

func newPopIndex(n []int) popIndex {
	strides := make([]int, len(n))
	size := 1
	for c, nc := range n {
		strides[c] = size
		size *= nc + 1
	}
	return popIndex{strides: strides, size: size}
}

func (pi popIndex) index(pop []int) int {
	idx := 0
	for c, v := range pop {
		idx += v * pi.strides[c]
	}
	return idx
}

// MultiExact solves the network by the exact multiclass MVA recursion
// over all population vectors n ≤ N:
//
//	R_ck(n) = D_ck · (1 + Q_k(n − e_c))   (queueing centers)
//	X_c(n)  = n_c / Σ_k R_ck(n),  Q_k(n) = Σ_c X_c(n)·R_ck(n)
//
// Complexity (and memory) is Π_c (N_c+1) states; an error is returned
// beyond about 4 million states — use MultiBard or MultiSchweitzer for
// larger populations.
func MultiExact(p MultiParams) (MultiResult, error) {
	if err := p.validate(); err != nil {
		return MultiResult{}, err
	}
	pi := newPopIndex(p.N)
	const maxStates = 1 << 22
	if pi.size > maxStates {
		return MultiResult{}, fmt.Errorf("mva: %d population states exceeds the exact-MVA limit %d", pi.size, maxStates)
	}
	C := len(p.N)
	K := len(p.Centers)

	// qTot[idx][k]: total queue at center k with population vector idx.
	qTot := make([][]float64, pi.size)
	qTot[0] = make([]float64, K)

	// Iterate population vectors in an order where n − e_c always
	// precedes n: counting order with the dense index works because
	// removing a customer strictly decreases the index.
	pop := make([]int, C)
	r := make([][]float64, C)
	for c := range r {
		r[c] = make([]float64, K)
	}
	x := make([]float64, C)
	for idx := 1; idx < pi.size; idx++ {
		// Decode idx into pop.
		rem := idx
		for c := C - 1; c >= 0; c-- {
			pop[c] = rem / pi.strides[c]
			rem %= pi.strides[c]
		}
		q := make([]float64, K)
		for c := 0; c < C; c++ {
			if pop[c] == 0 {
				x[c] = 0
				continue
			}
			prev := qTot[idx-pi.strides[c]]
			total := 0.0
			for k := 0; k < K; k++ {
				if p.Centers[k].Kind == Delay {
					r[c][k] = p.Demand[c][k]
				} else {
					r[c][k] = p.Demand[c][k] * (1 + prev[k])
				}
				total += r[c][k]
			}
			if total > 0 {
				x[c] = float64(pop[c]) / total
			} else {
				x[c] = 0
			}
		}
		for k := 0; k < K; k++ {
			for c := 0; c < C; c++ {
				if pop[c] > 0 {
					q[k] += x[c] * r[c][k]
				}
			}
		}
		qTot[idx] = q
	}
	return multiFinish(p, r, x, qTot[pi.size-1]), nil
}

// multiFinish packages the final-population quantities.
func multiFinish(p MultiParams, r [][]float64, x []float64, qTot []float64) MultiResult {
	C, K := len(p.N), len(p.Centers)
	res := MultiResult{
		X:         make([]float64, C),
		R:         make([][]float64, C),
		Q:         make([][]float64, C),
		QTotal:    append([]float64(nil), qTot...),
		CycleTime: make([]float64, C),
	}
	for c := 0; c < C; c++ {
		res.X[c] = x[c]
		res.R[c] = append([]float64(nil), r[c]...)
		res.Q[c] = make([]float64, K)
		for k := 0; k < K; k++ {
			res.Q[c][k] = x[c] * r[c][k]
		}
		if x[c] > 0 {
			res.CycleTime[c] = float64(p.N[c]) / x[c]
		}
	}
	return res
}

// multiDamping is the blend factor of the multiclass AMVA sweep.
const multiDamping = 0.5

// multiSweep evaluates one damped sweep of the multiclass AMVA over
// every class and center: residence times r and throughputs x from the
// queue lengths q (class-major, q[c·K+k]), and the next queue lengths
// by Little's law, blended with q, into fq. It reports whether q is
// admissible: no queue length negative and every queueing center's
// utilization below 1.
func multiSweep(p MultiParams, est func(qTot, qSelf float64, nc int) float64, q, fq []float64, r [][]float64, x []float64, stats *obs.SolveStats) bool {
	C, K := len(p.N), len(p.Centers)
	admissible := true
	for c := 0; c < C; c++ {
		if p.N[c] == 0 {
			x[c] = 0
			continue
		}
		total := 0.0
		for k := 0; k < K; k++ {
			if p.Centers[k].Kind == Delay {
				r[c][k] = p.Demand[c][k]
			} else {
				qTot := 0.0
				for cc := 0; cc < C; cc++ {
					qTot += q[cc*K+k]
				}
				r[c][k] = p.Demand[c][k] * (1 + est(qTot, q[c*K+k], p.N[c]))
			}
			total += r[c][k]
		}
		x[c] = float64(p.N[c]) / total
	}
	for k := 0; k < K; k++ {
		if p.Centers[k].Kind != Queueing {
			continue
		}
		u := 0.0
		for c := 0; c < C; c++ {
			u += x[c] * p.Demand[c][k]
		}
		if u > stats.MaxUtil {
			stats.MaxUtil = u
		}
		if u >= 1 {
			admissible = false
		}
	}
	for c := 0; c < C; c++ {
		for k := 0; k < K; k++ {
			v := q[c*K+k]
			if v < 0 {
				admissible = false
			}
			fq[c*K+k] = multiDamping*x[c]*r[c][k] + (1-multiDamping)*v
		}
	}
	return admissible
}

// multiApproximate runs the multiclass AMVA fixed point with the given
// arrival-queue estimator est(qTotalK, qSelfK, nc). The returned stats
// are meaningful on every path, including errors.
func multiApproximate(p MultiParams, est func(qTot, qSelf float64, nc int) float64) (MultiResult, obs.SolveStats, error) {
	var stats obs.SolveStats
	if err := p.validate(); err != nil {
		return MultiResult{}, stats, err
	}
	C, K := len(p.N), len(p.Centers)
	q := make([]float64, C*K) // class-major: q[c·K+k]
	for c := 0; c < C; c++ {
		for k := 0; k < K; k++ {
			q[c*K+k] = float64(p.N[c]) / float64(K)
		}
	}
	r := make([][]float64, C)
	for c := range r {
		r[c] = make([]float64, K)
	}
	x := make([]float64, C)
	fp, err := numeric.FixedPointVec(func(q, fq []float64) bool {
		return multiSweep(p, est, q, fq, r, x, &stats)
	}, q)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	if err != nil {
		return MultiResult{}, stats, fmt.Errorf("mva: multiclass approximation: %w", err)
	}
	qTot := make([]float64, K)
	for k := 0; k < K; k++ {
		for c := 0; c < C; c++ {
			qTot[k] += q[c*K+k]
		}
	}
	res := multiFinish(p, r, x, qTot)
	res.Solve = stats
	return res, stats, nil
}

// multiBardEst is Bard's estimator: an arriving customer of any class
// sees the full-population time-average queue.
func multiBardEst(qTot, _ float64, _ int) float64 { return qTot }

// multiSchweitzerEst is Schweitzer's estimator: an arriving class-c
// customer sees the full queue minus 1/N_c of its own class's
// contribution.
func multiSchweitzerEst(qTot, qSelf float64, nc int) float64 {
	return qTot - qSelf/float64(nc)
}

// MultiBard solves the multiclass network with Bard's approximation:
// an arriving customer of any class sees the full-population
// time-average queue.
func MultiBard(p MultiParams) (MultiResult, error) {
	return MultiBardObserved(p, nil)
}

// MultiBardObserved is MultiBard reporting the solve to o (which may be
// nil).
func MultiBardObserved(p MultiParams, o obs.SolveObserver) (MultiResult, error) {
	return solveObserved(o, SolverMultiBard, func() (MultiResult, obs.SolveStats, error) {
		return multiApproximate(p, multiBardEst)
	})
}

// MultiSchweitzer solves the multiclass network with Schweitzer's
// approximation: an arriving class-c customer sees the full queue minus
// 1/N_c of its own class's contribution.
func MultiSchweitzer(p MultiParams) (MultiResult, error) {
	return MultiSchweitzerObserved(p, nil)
}

// MultiSchweitzerObserved is MultiSchweitzer reporting the solve to o
// (which may be nil).
func MultiSchweitzerObserved(p MultiParams, o obs.SolveObserver) (MultiResult, error) {
	return solveObserved(o, SolverMultiSchweitzer, func() (MultiResult, obs.SolveStats, error) {
		return multiApproximate(p, multiSchweitzerEst)
	})
}

// MultiWorkpileNetwork builds the two-or-more-class work-pile network:
// class c has nClients[c] clients with mean chunk size w[c]; all
// classes share ps servers of handler cost so, reached over latency st.
func MultiWorkpileNetwork(nClients []int, ps int, w []float64, st, so float64) (MultiParams, error) {
	if len(nClients) != len(w) {
		return MultiParams{}, fmt.Errorf("mva: %d client counts for %d chunk sizes", len(nClients), len(w))
	}
	if ps < 1 {
		return MultiParams{}, fmt.Errorf("mva: ps = %d", ps)
	}
	centers := make([]Center, 0, ps+1)
	centers = append(centers, Center{Name: "client+net", Kind: Delay})
	for i := 0; i < ps; i++ {
		centers = append(centers, Center{Name: fmt.Sprintf("server%d", i), Kind: Queueing})
	}
	demand := make([][]float64, len(w))
	for c := range w {
		demand[c] = make([]float64, ps+1)
		demand[c][0] = w[c] + 2*st + so
		for k := 1; k <= ps; k++ {
			demand[c][k] = so / float64(ps)
		}
	}
	return MultiParams{Centers: centers, Demand: demand, N: nClients}, nil
}
