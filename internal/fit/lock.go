package fit

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/numeric"
	obspkg "repro/internal/obs"
)

// LockObservation is one point of a lock contention sweep: the thread
// count and the measured system throughput X (operations per time
// unit). This is the shape internal/workload/lockbench produces.
type LockObservation struct {
	Threads int
	X       float64
}

// LockResult is the fitted parameterization of a contention sweep.
type LockResult struct {
	// W and St are the fitted effective work and handoff times: the
	// configured work plus whatever per-operation overhead the runtime
	// adds (scheduler wakeups, cache misses the spin calibration does
	// not see).
	W, St float64
	// RelRMSE is the root-mean-square relative throughput residual of
	// the fitted model against the observations.
	RelRMSE float64
}

// Lock fits (W, St) of the coarse-grained lock model to a throughput
// sweep, holding (So, C2) fixed — in a lockbench run the critical
// section is a calibrated spin, so its mean and variability are known
// by construction, while the effective work and handoff absorb runtime
// overhead. Residuals are relative (X spans decades across thread
// counts). With a single observation W and St are not separately
// identifiable — they trade off along W + 2St = const — but the fitted
// pair still reproduces the measurement, which is all the
// model-vs-measured contract needs.
func Lock(obs []LockObservation, so, c2 float64) (LockResult, error) {
	return lockFit(obs, so, c2, nil, func(n int, w, st float64, o obspkg.SolveObserver) (float64, error) {
		res, err := core.LockObserved(core.LockParams{Threads: n, W: w, St: st, So: so, C2: c2}, o)
		return res.X, err
	})
}

// LockFree fits (W, St) of the CAS-retry conflict model to a
// throughput sweep, holding (So, C2) fixed, with the same conventions
// as Lock.
func LockFree(obs []LockObservation, so, c2 float64) (LockResult, error) {
	return lockFit(obs, so, c2, nil, func(n int, w, st float64, o obspkg.SolveObserver) (float64, error) {
		res, err := core.LockFreeObserved(core.LockFreeParams{Threads: n, W: w, St: st, So: so, C2: c2}, o)
		return res.X, err
	})
}

// lockFit is the shared optimizer: minimize the sum of squared
// relative throughput residuals over W ≥ 0 and St ≥ 0, failing with
// numeric.ErrNoConvergence as AllToAll does.
func lockFit(obs []LockObservation, so, c2 float64, observer obspkg.SolveObserver, model func(n int, w, st float64, o obspkg.SolveObserver) (float64, error)) (LockResult, error) {
	if so <= 0 || math.IsNaN(so) || math.IsInf(so, 0) {
		return LockResult{}, fmt.Errorf("fit: invalid service time So = %v", so)
	}
	if c2 < 0 || math.IsNaN(c2) || math.IsInf(c2, 0) {
		return LockResult{}, fmt.Errorf("fit: invalid variability C² = %v", c2)
	}
	if len(obs) < 1 {
		return LockResult{}, fmt.Errorf("fit: need at least 1 observation")
	}
	for _, o := range obs {
		if o.Threads < 1 || o.X <= 0 || math.IsNaN(o.X) || math.IsInf(o.X, 0) {
			return LockResult{}, fmt.Errorf("fit: invalid observation %+v", o)
		}
	}
	residuals := func(x, r []float64) bool {
		for i, o := range obs {
			xm, err := model(o.Threads, x[0], x[1], observer)
			if err != nil {
				return false
			}
			r[i] = (xm - o.X) / o.X
		}
		return true
	}
	// Seed from the least-loaded observation: its cycle is roughly
	// Threads/X, of which So (and a trip pair) is known; start with the
	// remainder as W and a small St.
	guessW := so
	for _, o := range obs {
		guessW = math.Max(guessW, float64(o.Threads)/o.X-so)
	}
	x := []float64{guessW, so / 4}
	loss, _, err := numeric.LeastSquares(residuals, x, []float64{0, 0}, len(obs))
	if err != nil {
		return LockResult{}, fmt.Errorf("fit: optimization failed: %w", err)
	}
	return LockResult{W: x[0], St: x[1], RelRMSE: math.Sqrt(loss / float64(len(obs)))}, nil
}
