package numeric

import (
	"fmt"
	"math"
)

// The constants of LeastSquares; its documentation says how they act.
const (
	lsLossTol = 1e-12 // stop when a step lowers the loss by less than this share
	lsStepTol = 1e-10 // stop when a step moves x by less than this share of max|x|
	lsMaxIter = 1000  // steps, accepted or rejected, before ErrNoConvergence
	// lsDiffStep is the relative forward-difference step: residuals are
	// differences of solved cycle times up to 1e4 times the parameters,
	// each with noise near 1e-14 of itself.
	lsDiffStep = 1e-6
	// lsLambda0 is the starting Marquardt damping; below lsLambdaMin it
	// changes no step but would take many rejections to regrow.
	lsLambda0, lsLambdaMin = 1e-3, 1e-9
)

// LeastSquares minimizes the loss ‖r(x)‖², the sum of the squared
// residuals, over x ≥ lo componentwise by a projected Levenberg–
// Marquardt method. It starts from x, which must be feasible, and
// overwrites it with the point found; it returns the loss there and the
// number of residual evaluations. r(x, out) fills out (length m) with
// the residuals at x, or returns false when x is infeasible; non-finite
// residuals count as infeasible.
//
// Each step builds the Jacobian J by forward differences and solves
// (JᵀJ + S + λ·diag(JᵀJ))·δ = −Jᵀr for the free parameters, then
// projects x + δ onto the bounds. S, built by the Dennis–Gay–Welsch
// secant update, estimates the residuals' own curvature Σ rᵢ·∇²rᵢ,
// which JᵀJ leaves out and which matters when the model cannot fit the
// data. A parameter is held (not free) when it sits on its bound with
// the gradient pointing outward, or when the residuals do not depend
// on it. A step that lowers the loss is accepted and λ divided by 10
// (floor 1e-9); any other is rejected and λ multiplied by 10. The run
// ends when an accepted step lowers the loss by less than 1e-12 of it,
// or when a step would move x by less than 1e-10 of its largest
// component; after 1000 steps it fails with ErrNoConvergence, leaving
// the best point found in x. The workspace is allocated once per call.
func LeastSquares(r func(x, out []float64) bool, x, lo []float64, m int) (loss float64, evals int, err error) {
	n := len(x)
	if n == 0 || len(lo) != n || m < 1 {
		return math.Inf(1), 0, fmt.Errorf("numeric: LeastSquares needs parameters, one bound each and residuals (n=%d, bounds %d, m=%d)", n, len(lo), m)
	}
	for j := range x {
		if math.IsNaN(x[j]) || math.IsInf(x[j], 0) || math.IsNaN(lo[j]) || x[j] < lo[j] {
			return math.Inf(1), 0, fmt.Errorf("numeric: LeastSquares start %v outside bounds %v", x, lo)
		}
	}
	ws := make([]float64, m*(n+2)+n*(3*n+7))
	take := func(k int) []float64 { s := ws[:k]; ws = ws[k:]; return s }
	res, trial, jac := take(m), take(m), take(m*n) // column j of jac is ∂r/∂x_j
	a, l, sm := take(n*n), take(n*n), take(n*n)
	g, step, xt, gOld, gCross, dlt, xPrev := take(n), take(n), take(n), take(n), take(n), take(n), take(n)
	eval := func(x, out []float64) float64 {
		if evals++; r(x, out) {
			return dot(out, out)
		}
		return math.Inf(1)
	}
	if loss = eval(x, res); !(loss < math.Inf(1)) {
		return math.Inf(1), evals, fmt.Errorf("numeric: LeastSquares start %v is infeasible", x)
	}
	lambda, fresh := lsLambda0, false
	for iter := 0; iter < lsMaxIter; iter++ {
		scale := 0.0
		for _, v := range x {
			scale = math.Max(scale, math.Abs(v))
		}
		if !fresh {
			if iter > 0 { // x has moved since the last Jacobian
				for j := range x {
					gCross[j] = dot(jac[j*m:(j+1)*m], res)
					dlt[j] = x[j] - xPrev[j]
					gOld[j] = g[j]
				}
			}
			// Each difference step is relative to its parameter, floored
			// at 1e-3 of the largest; an infeasible probe leaves its
			// column zero, which holds that parameter for the step.
			for j, xj := range x {
				h := lsDiffStep * math.Max(math.Abs(xj), 1e-3*scale)
				if h <= 0 {
					h = lsDiffStep
				}
				x[j] = xj + h
				if !(eval(x, trial) < math.Inf(1)) {
					copy(trial, res)
				}
				x[j] = xj
				for i := range res {
					jac[j*m+i] = (trial[i] - res[i]) / h
				}
				g[j] = dot(jac[j*m:(j+1)*m], res)
				for k := 0; k <= j; k++ {
					a[j*n+k] = dot(jac[j*m:(j+1)*m], jac[k*m:(k+1)*m])
					a[k*n+j] = a[j*n+k]
				}
			}
			if iter > 0 {
				secant(sm, g, gOld, gCross, dlt, xt)
			}
			copy(xPrev, x)
			fresh = true
		}
		if !dampedStep(a, sm, g, x, lo, lambda, l, step) {
			lambda *= 10
			continue
		}
		moved := 0.0
		for j := range xt {
			xt[j] = math.Max(x[j]+step[j], lo[j])
			moved = math.Max(moved, math.Abs(xt[j]-x[j]))
		}
		if moved <= lsStepTol*scale {
			return loss, evals, nil
		}
		lt := eval(xt, trial)
		if math.IsNaN(lt) || !(lt < loss) {
			lambda *= 10
			continue
		}
		copy(x, xt)
		copy(res, trial)
		converged := loss-lt <= lsLossTol*loss
		loss, lambda, fresh = lt, math.Max(lambda/10, lsLambdaMin), false
		if converged {
			return loss, evals, nil
		}
	}
	return loss, evals, ErrNoConvergence
}

// dampedStep solves (A + S + λ·diag(A))·step = −g, S being sm, by
// Cholesky factorization into l. A held parameter gets an identity row
// and a zero step. It reports false when the factorization breaks down.
func dampedStep(a, sm, g, x, lo []float64, lambda float64, l, step []float64) bool {
	n := len(g)
	held := func(j int) bool { return a[j*n+j] <= 0 || (x[j] <= lo[j] && g[j] > 0) }
	for j := 0; j < n; j++ {
		step[j] = -g[j]
		if held(j) {
			step[j] = 0
		}
		for k := 0; k <= j; k++ {
			v := a[j*n+k] + sm[j*n+k]
			switch {
			case held(j) || held(k):
				v = 0
				if k == j {
					v = 1
				}
			case k == j:
				v += lambda * a[j*n+j]
			}
			for i := 0; i < k; i++ {
				v -= l[j*n+i] * l[k*n+i]
			}
			if k < j {
				l[j*n+k] = v / l[k*n+k]
			} else if !(v > 0) {
				return false
			} else {
				l[j*n+j] = math.Sqrt(v)
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			step[j] -= l[j*n+i] * step[i]
		}
		step[j] /= l[j*n+j]
	}
	for j := n - 1; j >= 0; j-- {
		for i := j + 1; i < n; i++ {
			step[j] -= l[i*n+j] * step[i]
		}
		step[j] /= l[j*n+j]
	}
	return true
}

// secant applies the Dennis–Gay–Welsch update to the second-order term
// s after the step d, gOld being Jᵀr before it and gCross the old J
// against the new residuals (both overwritten); g is Jᵀr after it. A
// sizing factor keeps s from outgrowing the curvature the step showed.
func secant(s, g, gOld, gCross, d, sd []float64) {
	n := len(g)
	for j := range g {
		gOld[j], gCross[j] = g[j]-gOld[j], g[j]-gCross[j] // y, y#
		sd[j] = dot(s[j*n:(j+1)*n], d)
	}
	yd, dsd, tau := dot(gOld, d), dot(sd, d), 1.0
	if !(yd > 0) {
		return
	}
	if math.Abs(dsd) > 0 {
		tau = math.Min(1, math.Abs(dot(gCross, d)/dsd))
	}
	for j := range g {
		gCross[j] -= tau * sd[j] // w = y# − τ·s·d
	}
	wd := dot(gCross, d)
	for j := range g {
		for k := range g {
			s[j*n+k] = tau*s[j*n+k] + (gCross[j]*gOld[k]+gOld[j]*gCross[k])/yd - wd*gOld[j]*gOld[k]/(yd*yd)
		}
	}
}
