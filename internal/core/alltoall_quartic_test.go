package core

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// TestFixedPointIsPolynomialRoot verifies the §5.3 claim that "solving
// the model requires solving a quartic equation": clearing the
// denominators of R = F[R] (C² = 0) yields a polynomial in R, and the
// damped-iteration fixed point must be one of its real roots.
//
// The polynomial is recovered numerically: G(x) = (x − F(x))·D(x) with
// D(x) = 2x²(x−So)(x²−So·x−So²) clearing every denominator of F, so G
// is a polynomial of degree ≤ 6; Newton's divided differences through 7
// sample points reconstruct its coefficients exactly (up to float
// error), and the reconstruction is cross-checked at extra points.
func TestFixedPointIsPolynomialRoot(t *testing.T) {
	for _, p := range []Params{
		{P: 32, W: 512, St: 40, So: 200, C2: 0},
		{P: 32, W: 0, St: 40, So: 200, C2: 0},
		{P: 16, W: 2048, St: 10, So: 100, C2: 0},
	} {
		res, err := AllToAll(p)
		if err != nil {
			t.Fatal(err)
		}
		s := p.So
		d := func(x float64) float64 {
			return 2 * x * x * (x - s) * (x*x - s*x - s*s)
		}
		g := func(x float64) float64 {
			it, g := allToAllStep(p, x)
			if g != guardNone {
				t.Fatalf("step at %v: %v", x, it.guardError(g, x))
			}
			return (x - it.r) * d(x)
		}
		// Sample points comfortably inside the feasible region
		// (x > golden-ratio·So keeps x²−sx−s² > 0).
		base := 2*s + p.W + 2*p.St + 1
		xs := make([]float64, 7)
		for i := range xs {
			xs[i] = base + float64(i)*s
		}
		coef := fitPolynomial(xs, g)
		// Cross-check the reconstruction at fresh points.
		for _, x := range []float64{base + 0.4*s, base + 6.7*s} {
			want := g(x)
			got := numeric.Poly(coef, x)
			scale := math.Max(math.Abs(want), 1)
			if math.Abs(got-want) > 1e-6*scale {
				t.Fatalf("polynomial reconstruction off at %v: %v vs %v", x, got, want)
			}
		}
		// The fixed point must make G vanish, i.e. be a root.
		scale := math.Abs(numeric.Poly(coef, base))
		if v := numeric.Poly(coef, res.R); math.Abs(v) > 1e-6*scale {
			t.Errorf("params %+v: G(R*) = %v (scale %v); fixed point is not a root", p, v, scale)
		}
		// And PolyRealRootsIn must find it inside the Eq. 5.12 bracket.
		roots := numeric.PolyRealRootsIn(coef, res.ContentionFree-1, res.UpperBound+1)
		found := false
		for _, r := range roots {
			if math.Abs(r-res.R) < 1e-6*res.R {
				found = true
			}
		}
		if !found {
			t.Errorf("params %+v: fixed point %v not among polynomial roots %v", p, res.R, roots)
		}
	}
}

// fitPolynomial reconstructs polynomial coefficients from samples by
// Newton's divided differences, then expands to the monomial basis.
func fitPolynomial(xs []float64, f func(float64) float64) []float64 {
	n := len(xs)
	div := make([]float64, n)
	for i := range div {
		div[i] = f(xs[i])
	}
	for k := 1; k < n; k++ {
		for i := n - 1; i >= k; i-- {
			div[i] = (div[i] - div[i-1]) / (xs[i] - xs[i-k])
		}
	}
	// Expand Newton form to monomials: p(x) = Σ div[k]·Π_{j<k}(x−xs[j]).
	coef := make([]float64, n)
	basis := []float64{1} // Π so far, in monomial coefficients
	for k := 0; k < n; k++ {
		for j, b := range basis {
			coef[j] += div[k] * b
		}
		if k+1 < n {
			// basis *= (x − xs[k])
			next := make([]float64, len(basis)+1)
			for j, b := range basis {
				next[j+1] += b
				next[j] -= xs[k] * b
			}
			basis = next
		}
	}
	return coef
}
