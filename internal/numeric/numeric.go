// Package numeric provides the small set of numerical routines the LoPC
// solvers need: the fixed-point kernel every AMVA equation system runs
// on (a bracketed secant for scalar models, Anderson mixing for vector
// ones), bracketing bisection (for the bound derivation of §5.3), a
// bounded least-squares kernel (for calibration), and polynomial
// utilities (the homogeneous model reduces to a quartic; we solve it by
// iteration but expose the polynomial machinery for verification).
package numeric

import (
	"fmt"
	"math"
)

// Close reports whether a and b agree to within tol relative to their
// magnitude: |a−b| ≤ tol·(1+max(|a|,|b|)). The 1+ term makes tol act as
// an absolute tolerance near zero and a relative one for large values,
// so a single tolerance works across the model's quantity scales
// (probabilities near 0, cycle counts in the millions). This is the
// comparison the floateq check (internal/lint) points code at instead
// of == on floats.
func Close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// Zero reports whether x is within tol of zero: |x| ≤ tol.
func Zero(x, tol float64) bool {
	return math.Abs(x) <= tol
}

// Bisect finds a root of f on [lo, hi], where f(lo) and f(hi) must have
// opposite signs (or one of them be zero). It returns a point where |hi
// - lo| has shrunk below tol. A NaN from f at an endpoint or a midpoint
// has no sign and is an error, as are a NaN endpoint and a NaN or
// negative tol; a bracket still wider than tol after 200 halvings ends
// the run with ErrNoConvergence.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || !(tol >= 0) {
		return 0, fmt.Errorf("numeric: Bisect needs a bracket and a tolerance >= 0 (lo %v, hi %v, tol %v)", lo, hi, tol)
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, fmt.Errorf("numeric: Bisect f is NaN at an endpoint: f(%v)=%v, f(%v)=%v", lo, flo, hi, fhi)
	}
	//lopc:allow floateq exact zero means the endpoint IS the root; any nonzero value keeps bisecting
	if flo == 0 {
		return lo, nil
	}
	//lopc:allow floateq exact zero means the endpoint IS the root; any nonzero value keeps bisecting
	if fhi == 0 {
		return hi, nil
	}
	if flo*fhi > 0 {
		return 0, fmt.Errorf("numeric: Bisect endpoints do not bracket a root: f(%v)=%v, f(%v)=%v", lo, flo, hi, fhi)
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		switch {
		case math.IsNaN(fm):
			return 0, fmt.Errorf("numeric: Bisect f is NaN at %v inside [%v, %v]", mid, lo, hi)
		//lopc:allow floateq exact zero is a lucky exact root; the sign test below handles every other value
		case fm == 0:
			return mid, nil
		case flo*fm < 0:
			hi = mid
		default:
			lo, flo = mid, fm
		}
	}
	if hi-lo > tol {
		return lo + (hi-lo)/2, fmt.Errorf("numeric: Bisect bracket [%v, %v] still wider than %v after 200 halvings: %w", lo, hi, tol, ErrNoConvergence)
	}
	return lo + (hi-lo)/2, nil
}

// Poly evaluates the polynomial with the given coefficients (c[0] +
// c[1]x + c[2]x² + ...) at x using Horner's rule.
func Poly(c []float64, x float64) float64 {
	v := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		v = v*x + c[i]
	}
	return v
}

// PolyDeriv returns the coefficients of the derivative polynomial.
func PolyDeriv(c []float64) []float64 {
	if len(c) <= 1 {
		return []float64{0}
	}
	d := make([]float64, len(c)-1)
	for i := 1; i < len(c); i++ {
		d[i-1] = float64(i) * c[i]
	}
	return d
}

// PolyRealRootsIn finds all real roots of the polynomial c inside
// [lo, hi] by recursively bracketing between the critical points. It is
// exact enough for the low-degree polynomials (≤ quartic) arising from
// the LoPC equations.
func PolyRealRootsIn(c []float64, lo, hi float64) []float64 {
	// Trim trailing zero coefficients.
	deg := len(c) - 1
	//lopc:allow floateq trailing coefficients are dropped only when exactly zero; near-zero ones still shape the polynomial
	for deg > 0 && c[deg] == 0 {
		deg--
	}
	c = c[:deg+1]
	if deg == 0 {
		return nil
	}
	if deg == 1 {
		r := -c[0] / c[1]
		if r >= lo && r <= hi {
			return []float64{r}
		}
		return nil
	}
	// Critical points of c partition [lo, hi] into monotone intervals.
	crit := PolyRealRootsIn(PolyDeriv(c), lo, hi)
	pts := append([]float64{lo}, crit...)
	pts = append(pts, hi)
	var roots []float64
	f := func(x float64) float64 { return Poly(c, x) }
	const tol = 1e-12
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		fa, fb := f(a), f(b)
		switch {
		//lopc:allow floateq an interval endpoint is taken as a root only when exactly zero; sign changes catch the rest
		case fa == 0:
			roots = appendRoot(roots, a)
		//lopc:allow floateq an interval endpoint is taken as a root only when exactly zero; sign changes catch the rest
		case fb == 0 && i+2 == len(pts):
			roots = appendRoot(roots, b)
		case fa*fb < 0:
			if r, err := Bisect(f, a, b, tol*(1+math.Abs(b))); err == nil {
				roots = appendRoot(roots, r)
			}
		}
	}
	return roots
}

// appendRoot appends r unless it duplicates the last root found (within
// a small tolerance), which happens when a root coincides with a
// critical point shared by two intervals.
func appendRoot(roots []float64, r float64) []float64 {
	if n := len(roots); n > 0 && math.Abs(roots[n-1]-r) < 1e-9*(1+math.Abs(r)) {
		return roots
	}
	return append(roots, r)
}
