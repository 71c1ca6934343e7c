package numeric

import (
	"errors"
	"fmt"
	"math"
)

// This file is the one fixed-point kernel every AMVA solver in the
// repository runs on. It has a scalar entry point, FixedPoint, for the
// models that reduce to one unknown (the all-to-all cycle time, the
// work-pile and lock response times, the lock-free and multithreaded
// cycle times, the single-class MVA cycle time), and a vector entry
// point, FixedPointVec, for the per-node and per-class systems
// (Appendix A, multiclass MVA). Both accept a point when the map moves
// it (each component of it) by at most fixedPointTol relative to its
// magnitude, report how the run went in a FixedPointInfo, and fail
// with ErrNoConvergence or a non-finite-map error.

// ErrNoConvergence is returned when an iterative method exhausts its
// iteration budget without meeting its tolerance, or when a scalar
// bracket closes on the boundary of the map's infeasible region instead
// of on a fixed point.
var ErrNoConvergence = errors.New("numeric: iteration did not converge")

const (
	// fixedPointTol is the kernel's acceptance test: x is a fixed point
	// when |F(x) − x| ≤ fixedPointTol·|x|, componentwise for vectors.
	// It is relative so that a model's answer is as accurate in one
	// time unit as in another (cycles or seconds).
	fixedPointTol = 1e-10
	// vecFloor sets the vector test's floor: a component far below the
	// largest (a queue length at a node hardly anyone visits) converges
	// to fixedPointTol·vecFloor·max|x| absolute, instead of chasing
	// relative accuracy in a value that is rounding noise beside the
	// rest.
	vecFloor = 1e-12
	// fixedPointMaxIter bounds the map evaluations of one solve. A
	// bracketed scalar solve needs tens; the budget only ends maps that
	// are discontinuous or not contractive under mixing.
	fixedPointMaxIter = 10000
	// andersonDepth is the number of past steps Anderson mixing
	// extrapolates from.
	andersonDepth = 4
)

// FixedPointInfo describes how a fixed-point solve went, whether or
// not it converged.
type FixedPointInfo struct {
	// Iters is the number of evaluations of the map.
	Iters int
	// Residual is |F(x) − x| (the max norm for vectors) at the returned
	// point, the quantity tested against the tolerance.
	Residual float64
	// Converged reports whether the tolerance was met.
	Converged bool
}

// Bracket bounds a scalar fixed point: Lo ≤ x* ≤ Hi. Unbracketed
// leaves both ends open. A bound that turns out wrong (the map says
// the fixed point lies past it) is dropped, so a bracket speeds a solve
// up but never changes which fixed point it finds.
type Bracket struct{ Lo, Hi float64 }

// Unbracketed is the Bracket of a solve that knows no bounds.
var Unbracketed = Bracket{Lo: math.Inf(-1), Hi: math.Inf(1)}

// scalarEnd is one end of the scalar bracket: a point x where g(x) =
// F(x) − x is known, or where the map is infeasible (guard set, g
// undefined and counted as positive).
type scalarEnd struct {
	x, g float64
	// g0 is g as evaluated and res its magnitude; g itself may be
	// halved by the Illinois rule.
	g0, res float64
	ok      bool // the end has been evaluated
	guard   bool // the map was infeasible at x
}

// polish returns the regula falsi point of the bracket [a, b] through
// the residuals as evaluated: the root of the secant through two
// feasible points that straddle the fixed point, which lies between
// them and so is feasible too. Near convergence its error is the
// product of the ends' errors, far below the tolerance either end met.
func polish(a, b scalarEnd) float64 {
	s := (a.x*b.g0 - b.x*a.g0) / (b.g0 - a.g0)
	return math.Min(math.Max(s, a.x), b.x)
}

// FixedPoint solves x = f(x) for a scalar map, starting from x0.
//
// f returns (F(x), true), or (_, false) when x lies in the map's
// infeasible region (a utilization at or past 1). The kernel assumes
// the shape every AMVA map here has: g(x) = F(x) − x is positive below
// the fixed point and negative above it, and infeasible points lie
// below it. It first finds a sign change of g, moving up from points
// below by fixed-point steps, secant extrapolation or (from infeasible
// points) doubling, and down from points above by fixed-point steps,
// all clipped into br. It then closes the bracket by regula falsi with
// the Illinois modification, falling back to bisection whenever an end
// is infeasible or the bracket stops halving.
//
// A point is accepted when |F(x) − x| ≤ 1e-10·|x|, or when the
// bracket around a sign change narrows to that width. When the bracket
// then has feasible points on both sides, the kernel returns its regula
// falsi point through the residuals as evaluated, which is accurate far
// beyond the tolerance; a start that is accepted at once is stepped
// once more to get that bracket. So the answer does not depend on the
// start (a caller's warm start) at the tolerance's scale, which an
// optimizer comparing nearby solves would see as noise. A bracket that
// narrows onto an infeasible end has no fixed point: the kernel returns
// that end with ErrNoConvergence, and the caller's guard at the
// returned point names the reason. A non-finite F(x) ends the solve
// with an error at x. Infeasible points must be positive (the kernel
// doubles them).
func FixedPoint(f func(float64) (float64, bool), x0 float64, br Bracket) (float64, FixedPointInfo, error) {
	if math.IsNaN(x0) || math.IsInf(x0, 0) || math.IsNaN(br.Lo) || math.IsNaN(br.Hi) || br.Lo > br.Hi {
		return 0, FixedPointInfo{}, fmt.Errorf("numeric: invalid fixed point start %v in bracket [%v, %v]", x0, br.Lo, br.Hi)
	}
	x, fx, info, err := secantLoop(f, x0, br)
	if err == errNonFinite {
		err = fmt.Errorf("numeric: fixed point map returned %v at x=%v", fx, x)
	}
	return x, info, err
}

// errNonFinite is secantLoop's and andersonLoop's report of a
// non-finite map value; the entry points render it with the value, off
// the hot path.
var errNonFinite = errors.New("numeric: fixed point map returned a non-finite value")

// secantLoop is FixedPoint's iteration. On errNonFinite, fx is the
// value the map returned at x.
func secantLoop(f func(float64) (float64, bool), x0 float64, br Bracket) (x, fx float64, info FixedPointInfo, err error) {
	lo, hi := br.Lo, br.Hi
	x = math.Min(math.Max(x0, lo), hi)
	// a is the highest point known below the fixed point, b the lowest
	// known above it; pa and pb the previous ones, for extrapolation.
	var a, b, pa, pb scalarEnd
	// side is the end the last bracketed step replaced (-1 a, +1 b),
	// for the Illinois halving; width the bracket when the bisection
	// safeguard last checked it, steps the bracketed steps since.
	side, steps := 0, 0
	width := math.Inf(1)
	for i := 0; i < fixedPointMaxIter; i++ {
		info.Iters = i + 1
		var feasible bool
		fx, feasible = f(x)
		e := scalarEnd{x: x, ok: true, guard: !feasible}
		if feasible {
			if math.IsNaN(fx) || math.IsInf(fx, 0) {
				return x, fx, info, errNonFinite
			}
			e.g = fx - x
			e.g0, e.res = e.g, math.Abs(e.g)
			info.Residual = e.res
			info.Converged = e.res <= fixedPointTol*math.Abs(x)
		}
		// Record the point on its side of the fixed point, halving the
		// kept end's residual when the same side moves twice (Illinois).
		if e.guard || e.g > 0 {
			if side < 0 && b.ok {
				b.g /= 2
			}
			pa, a, side = a, e, -1
		} else {
			if side > 0 && a.ok {
				a.g /= 2
			}
			pb, b, side = b, e, 1
		}
		if info.Converged {
			switch {
			case a.ok && !a.guard && b.ok:
				return polish(a, b), fx, info, nil
			case i > 0:
				return x, fx, info, nil
			}
			// Accepted at the start (a warm start near the answer): take
			// the fixed-point step once more, so that the answer is
			// polished between two points instead of being wherever the
			// solve started.
			x += e.g
			continue
		}
		if a.ok && b.ok {
			w := b.x - a.x
			if w <= fixedPointTol*math.Abs(b.x) {
				if a.guard {
					return a.x, 0, info, ErrNoConvergence
				}
				if a.res < b.res {
					info.Residual = a.res
				} else {
					info.Residual = b.res
				}
				info.Converged = true
				return polish(a, b), 0, info, nil
			}
			// Regula falsi between the ends; bisect instead when an end
			// has no residual, when rounding puts the secant point on an
			// end, or when three steps have not halved the bracket.
			steps++
			bisect := a.guard
			if steps >= 3 {
				bisect = bisect || w > width/2
				steps, width = 0, w
			}
			x = a.x + w/2
			if !bisect {
				if s := (a.x*b.g - b.x*a.g) / (b.g - a.g); s > a.x && s < b.x {
					x = s
				}
			}
			continue
		}
		if a.ok {
			// Below the fixed point: step up.
			switch {
			case a.guard:
				x = 2 * a.x
			default:
				x = a.x + a.g // the fixed-point step F(a)
				if pa.ok && !pa.guard && pa.g > a.g {
					// g is falling toward its root: extrapolate the
					// secant, at most 64 fixed-point steps ahead.
					s := a.x + a.g*(a.x-pa.x)/(pa.g-a.g)
					x = math.Max(x, math.Min(s, a.x+64*a.g))
				}
			}
			if x >= hi {
				if a.x >= hi {
					hi = math.Inf(1) // the upper bound was wrong
				} else {
					x = hi
				}
			}
		} else {
			// Above the fixed point: step down, never below half way
			// to zero from a positive point.
			x = b.x + b.g
			if pb.ok && pb.g < b.g {
				s := b.x + b.g*(b.x-pb.x)/(pb.g-b.g)
				x = math.Min(x, math.Max(s, b.x+64*b.g))
			}
			if b.x > 0 {
				x = math.Max(x, math.Min(b.x+b.g, b.x/2))
			}
			if x <= lo {
				if b.x <= lo {
					lo = math.Inf(-1) // the lower bound was wrong
				} else {
					x = lo
				}
			}
		}
	}
	// Out of budget: return the best end found, preferring a feasible
	// one so the caller reports the model quantities there.
	switch {
	case b.ok && (a.guard || !a.ok || b.res < a.res):
		x, info.Residual = b.x, b.res
	default:
		x, info.Residual = a.x, a.res
	}
	return x, 0, info, ErrNoConvergence
}

// FixedPointVec solves x = f(x) for a vector map, in place: f writes
// F(x) into fx (len(fx) = len(x)) and reports whether x is admissible,
// a point the model can hold (non-negative times and queue lengths,
// utilizations below 1). x holds the last point the map was evaluated
// at when FixedPointVec returns, so any quantities f derives from x
// alongside F(x) belong to the returned point.
//
// Each step is Anderson mixing (type II, depth 4) over plain iteration
// x ← F(x): the step is extrapolated through the least-squares
// combination of the last residual differences. The normal equations
// of that fit are kept incrementally, one new Gram row per step, and
// solved by Cholesky. When the fit is singular the history is dropped
// and the next step is the plain one. An extrapolated point that the
// map reports inadmissible is rejected for the plain step from the
// point before it: the AMVA equations also
// have unphysical roots (a utilization past 1 that the residual-life
// correction turns into positive response times) that plain iteration
// never reaches but extrapolation can. With no history the kernel runs
// exactly the caller's sweep, so a map that needs damping to converge
// (Appendix A, multiclass MVA) damps inside its sweep, and a plain step
// is never rejected: early sweeps may overshoot a utilization past 1
// and the sweep's own clamps recover. The workspace is allocated once
// per solve; the iteration allocates nothing.
//
// A point is accepted when every component meets the scalar test,
// |F(x)_j − x_j| ≤ 1e-10·|x_j|, so small quantities converge as tightly
// as large ones, down to a floor of 1e-12·max|x|. A non-finite F(x)
// ends the solve with an error.
func FixedPointVec(f func(x, fx []float64) bool, x []float64) (FixedPointInfo, error) {
	if len(x) == 0 {
		return FixedPointInfo{}, errors.New("numeric: empty fixed point vector")
	}
	ws := newAnderson(len(x))
	info, bad, err := andersonLoop(&ws, f, x)
	if err == errNonFinite {
		err = fmt.Errorf("numeric: fixed point map returned %v at component %d", ws.fx[bad], bad)
	}
	return info, err
}

// andersonLoop is FixedPointVec's iteration on workspace ws. On
// errNonFinite, bad is the component whose map value was not finite.
func andersonLoop(ws *anderson, f func(x, fx []float64) bool, x []float64) (info FixedPointInfo, bad int, err error) {
	for i := 0; i < fixedPointMaxIter; i++ {
		info.Iters = i + 1
		admissible := f(x, ws.fx)
		// norm is the largest residual, reported in the info; the
		// tolerance is tested per component, so quantities of very
		// different magnitude each meet it. Plain compares: the values
		// are finite here, so math.Max's NaN and signed-zero handling is
		// not needed.
		norm, xmax := 0.0, 0.0
		for j, v := range ws.fx {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return info, j, errNonFinite
			}
			ws.res[j] = v - x[j]
			if d := math.Abs(ws.res[j]); d > norm {
				norm = d
			}
			if a := math.Abs(x[j]); a > xmax {
				xmax = a
			}
		}
		info.Residual = norm
		info.Converged = true
		for j, r := range ws.res {
			if math.Abs(r) > fixedPointTol*(math.Abs(x[j])+vecFloor*xmax) {
				info.Converged = false
				break
			}
		}
		if info.Converged {
			return info, 0, nil
		}
		ws.step(x, admissible, i > 0)
	}
	return info, 0, ErrNoConvergence
}

// anderson is FixedPointVec's workspace: the map value and residual at
// the current point, the map value and residual at the last accepted
// point, and the last andersonDepth differences of both with the Gram
// matrix of the residual differences. The differences fill slots 0, 1,
// … and then overwrite the oldest, so the live slots are always
// 0..count−1; least squares does not care about column order.
type anderson struct {
	n                        int
	fx, res, prevFx, prevRes []float64
	// dg and df hold slot k's map-value and residual differences at
	// [k·n, (k+1)·n).
	dg, df []float64
	// gram[j·andersonDepth+k] = df_j·df_k over the live slots; chol
	// holds its Cholesky factor, with the diagonal's reciprocals in
	// invDiag.
	gram, chol     [andersonDepth * andersonDepth]float64
	invDiag, gamma [andersonDepth]float64
	next, count    int
	// extrapolated says the current point came from the mixing, not
	// from a plain step.
	extrapolated bool
}

func newAnderson(n int) anderson {
	buf := make([]float64, (4+2*andersonDepth)*n)
	return anderson{
		n:       n,
		fx:      buf[0:n],
		res:     buf[n : 2*n],
		prevFx:  buf[2*n : 3*n],
		prevRes: buf[3*n : 4*n],
		dg:      buf[4*n : (4+andersonDepth)*n],
		df:      buf[(4+andersonDepth)*n:],
	}
}

// step moves x to the next iterate, given the map value ws.fx and
// residual ws.res at x and whether the map found x admissible.
// havePrev says ws.prevFx and ws.prevRes hold the last accepted
// point's.
//
// The next iterate is F(x) − Σ γ_k·ΔF_k, where γ fits the residual by
// the residual differences in least squares and ΔF_k are the matching
// map-value differences (Anderson type II with unit mixing, written in
// map values). An extrapolated x that is inadmissible is rejected: the
// history is dropped and the iterate goes back to the plain step from
// the accepted point, F of it.
func (ws *anderson) step(x []float64, admissible, havePrev bool) {
	n := ws.n
	switch {
	case !havePrev:
	case ws.extrapolated && !admissible:
		copy(x, ws.prevFx)
		ws.count, ws.next, ws.extrapolated = 0, 0, false
		return
	default:
		// Store the newest differences over the oldest and fill in
		// their Gram row.
		slot := ws.next
		ws.next = (ws.next + 1) % andersonDepth
		if ws.count < andersonDepth {
			ws.count++
		}
		dg, df := ws.dg[slot*n:(slot+1)*n], ws.df[slot*n:(slot+1)*n]
		for j := range dg {
			dg[j] = ws.fx[j] - ws.prevFx[j]
			df[j] = ws.res[j] - ws.prevRes[j]
		}
		for k := 0; k < ws.count; k++ {
			d := dot(df, ws.df[k*n:(k+1)*n])
			ws.gram[slot*andersonDepth+k] = d
			ws.gram[k*andersonDepth+slot] = d
		}
	}
	copy(ws.prevFx, ws.fx)
	copy(ws.prevRes, ws.res)
	if ws.count > 0 && !ws.solve() {
		ws.count, ws.next = 0, 0
	}
	copy(x, ws.fx)
	ws.extrapolated = ws.count > 0
	for k := 0; k < ws.count; k++ {
		g := ws.gamma[k]
		for j, d := range ws.dg[k*n : (k+1)*n] {
			x[j] -= g * d
		}
	}
}

// solve fits gamma = argmin |res − ΔF·gamma| through the normal
// equations (Gram plus a ridge of 1e-12 of its trace) by Cholesky,
// reporting false when the system is singular.
func (ws *anderson) solve() bool {
	const d = andersonDepth
	m, n := ws.count, ws.n
	trace := 0.0
	for k := 0; k < m; k++ {
		trace += ws.gram[k*d+k]
	}
	ridge := 1e-12 * trace
	// Cholesky factor L (row-major, lower) of the live Gram block, and
	// the forward substitution L·y = ΔFᵀ·res into gamma.
	for r := 0; r < m; r++ {
		for c := 0; c <= r; c++ {
			s := ws.gram[r*d+c]
			for k := 0; k < c; k++ {
				s -= ws.chol[r*d+k] * ws.chol[c*d+k]
			}
			if r == c {
				s += ridge
				if !(s > 0) {
					return false
				}
				ws.chol[r*d+r] = math.Sqrt(s)
				ws.invDiag[r] = 1 / ws.chol[r*d+r]
			} else {
				ws.chol[r*d+c] = s * ws.invDiag[c]
			}
		}
		s := dot(ws.df[r*n:(r+1)*n], ws.res)
		for k := 0; k < r; k++ {
			s -= ws.chol[r*d+k] * ws.gamma[k]
		}
		ws.gamma[r] = s * ws.invDiag[r]
	}
	// Back substitution Lᵀ·gamma = y.
	for r := m - 1; r >= 0; r-- {
		s := ws.gamma[r]
		for k := r + 1; k < m; k++ {
			s -= ws.chol[k*d+r] * ws.gamma[k]
		}
		ws.gamma[r] = s * ws.invDiag[r]
		if math.IsNaN(ws.gamma[r]) || math.IsInf(ws.gamma[r], 0) {
			return false
		}
	}
	return true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
