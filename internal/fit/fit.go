// Package fit calibrates LoPC's architectural parameters from
// measurements — the inverse problem practitioners face: a LogP/LoPC
// analysis needs St (wire latency) and So (message-handling cost), and
// the standard way to obtain them is to run a microbenchmark sweep and
// fit the model to it.
//
// Given observed mean compute/request cycle times R_i at several work
// settings W_i of the homogeneous all-to-all pattern, AllToAll finds
// the (St, So) minimizing the sum of squared residuals against the
// model of internal/core. Because the model is pessimistic by a few
// percent against a real machine, fitted parameters absorb part of
// that bias — which is exactly what a practitioner calibrating from
// hardware wants.
package fit

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/numeric"
	obspkg "repro/internal/obs"
)

// Observation is one point of the calibration sweep: the configured
// mean work W and the measured mean cycle time R. Rq, when positive, is
// the measured mean request-handler response time (queueing plus
// service) at that W; including it is strongly recommended — R(W)
// sweeps alone leave St and So weakly identifiable (they trade off
// along R ≈ W + 2St + ~3So), while Rq pins So directly.
type Observation struct {
	W, R float64
	Rq   float64
}

// Result is the fitted parameterization.
type Result struct {
	// St and So are the fitted architectural parameters.
	St, So float64
	// RMSE is the root-mean-square residual of the fit, in cycles.
	RMSE float64
	// RelRMSE is RMSE over the mean observed R.
	RelRMSE float64
}

// AllToAll fits (St, So) to three or more all-to-all observations on a
// P-node machine with handler variability c2. A fit the least-squares
// kernel cannot finish in its step cap fails with numeric.ErrNoConvergence.
func AllToAll(obs []Observation, p int, c2 float64) (Result, error) {
	return AllToAllObserved(obs, p, c2, nil)
}

// CheckAllToAll reports whether AllToAll can fit obs on a p-node
// machine with handler variability c2: p must be at least 2 (the
// smallest all-to-all machine), c2 finite and non-negative, and there
// must be at least three observations, each with finite positive R,
// finite non-negative W, and finite non-negative Rq (0 when not
// measured).
func CheckAllToAll(obs []Observation, p int, c2 float64) error {
	if p < 2 {
		return fmt.Errorf("fit: all-to-all needs at least 2 processors, got P = %d", p)
	}
	if math.IsNaN(c2) || math.IsInf(c2, 0) || c2 < 0 {
		return fmt.Errorf("fit: invalid handler variability C² = %v", c2)
	}
	if len(obs) < 3 {
		return fmt.Errorf("fit: need at least 3 observations, got %d", len(obs))
	}
	for _, o := range obs {
		// The negated comparisons reject NaN too: NaN >= 0 is false.
		if !(o.R > 0) || !(o.W >= 0) || !(o.Rq >= 0) ||
			math.IsInf(o.R, 0) || math.IsInf(o.W, 0) || math.IsInf(o.Rq, 0) {
			return fmt.Errorf("fit: invalid observation %+v", o)
		}
	}
	return nil
}

// AllToAllObserved is AllToAll reporting every model solve the
// optimizer's residual evaluations make to observer (which may be nil):
// the convergence trace shows how the solver behaves as the optimizer
// roams the (St, So) plane.
func AllToAllObserved(obs []Observation, p int, c2 float64, observer obspkg.SolveObserver) (Result, error) {
	if err := CheckAllToAll(obs, p, c2); err != nil {
		return Result{}, err
	}
	// The start splits the smallest fixed overhead evenly.
	meanR, minOverhead := 0.0, math.Inf(1)
	for _, o := range obs {
		meanR += o.R
		minOverhead = math.Min(minOverhead, o.R-o.W)
	}
	meanR /= float64(len(obs))
	if minOverhead <= 0 {
		minOverhead = meanR * 0.1
	}

	// Fit St ≥ 0 and So > 0 (core.Params.Validate's rules; So's bound
	// is 1e-12 of the mean cycle, as So = 0 is infeasible) from crude
	// closed-form guesses: at large W the model tends to R ≈ W + 2St +
	// 3So, and the fixed overhead R − W at the smallest W is ≈ 2St +
	// 3.45·So.
	//
	// Successive residual evaluations are neighbouring points of the
	// (St, So) plane, so each W's solve starts from the R the previous
	// evaluation found at that W (clipped into the new point's Eq.
	// 5.11–5.12 bracket by the solver).
	warm := make([]float64, len(obs))
	residuals := func(x, r []float64) bool {
		for i, o := range obs {
			res, err := core.AllToAllFrom(core.Params{P: p, W: o.W, St: x[0], So: x[1], C2: c2}, warm[i], observer)
			if err != nil {
				return false
			}
			warm[i] = res.R
			r[2*i], r[2*i+1] = res.R-o.R, 0
			if o.Rq > 0 { // an unmeasured Rq leaves its residual at 0
				r[2*i+1] = res.Rq - o.Rq
			}
		}
		return true
	}
	lo := []float64{0, 1e-12 * meanR}
	x := []float64{minOverhead / 4, math.Max(minOverhead/4, lo[1])}
	loss, _, err := numeric.LeastSquares(residuals, x, lo, 2*len(obs))
	if err != nil {
		return Result{}, fmt.Errorf("fit: optimization failed: %w", err)
	}
	rmse := math.Sqrt(loss / float64(len(obs)))
	return Result{St: x[0], So: x[1], RMSE: rmse, RelRMSE: rmse / meanR}, nil
}
