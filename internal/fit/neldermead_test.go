package fit

import (
	"math"
	"sort"
)

// nelderMead is the reference minimizer the fits used before they moved
// onto numeric.LeastSquares: the downhill simplex of Nelder and Mead,
// run in log space so every parameter stays positive, from the same
// starts. It survives only in tests, as the oracle of the differential
// tests: the least-squares fits must never end at a higher loss. It
// returns the best point found (in linear space) and its loss.
func nelderMead(loss func(x []float64) float64, x0 []float64) ([]float64, float64) {
	const (
		tol, xtol, maxIter, scale = 1e-10, 1e-8, 20000, 0.1
		alpha, gamma, rho, sigma  = 1.0, 2.0, 0.5, 0.5
	)
	n := len(x0)
	eval := func(y []float64) float64 {
		x := make([]float64, n)
		for k := range y {
			x[k] = math.Exp(y[k])
		}
		if v := loss(x); !math.IsNaN(v) {
			return v
		}
		return math.Inf(1)
	}
	type vertex struct {
		y []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		y := make([]float64, n)
		for k := range y {
			y[k] = math.Log(x0[k])
		}
		if i > 0 {
			y[i-1] += scale * (math.Abs(y[i-1]) + 1)
		}
		simplex[i] = vertex{y, eval(y)}
	}
	shrink := func() {
		for i := 1; i <= n; i++ {
			for k := range simplex[i].y {
				simplex[i].y[k] = simplex[0].y[k] + sigma*(simplex[i].y[k]-simplex[0].y[k])
			}
			simplex[i].f = eval(simplex[i].y)
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		best, worst := simplex[0], simplex[n]
		if math.Abs(worst.f-best.f) <= tol*(1+math.Abs(best.f)) {
			diam, mag := 0.0, 0.0
			for k := range best.y {
				mag = math.Max(mag, math.Abs(best.y[k]))
				for _, v := range simplex[1:] {
					diam = math.Max(diam, math.Abs(v.y[k]-best.y[k]))
				}
			}
			if diam <= xtol*(1+mag) {
				break
			}
			shrink()
			continue
		}
		centroid := make([]float64, n)
		for _, v := range simplex[:n] {
			for k := range centroid {
				centroid[k] += v.y[k] / float64(n)
			}
		}
		point := func(coef float64) vertex {
			y := make([]float64, n)
			for k := range y {
				y[k] = centroid[k] + coef*(centroid[k]-worst.y[k])
			}
			return vertex{y, eval(y)}
		}
		refl := point(alpha)
		switch {
		case refl.f < best.f:
			if exp := point(gamma); exp.f < refl.f {
				simplex[n] = exp
			} else {
				simplex[n] = refl
			}
		case refl.f < simplex[n-1].f:
			simplex[n] = refl
		default:
			if contr := point(-rho); contr.f < worst.f {
				simplex[n] = contr
			} else {
				shrink()
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	x := make([]float64, n)
	for k := range x {
		x[k] = math.Exp(simplex[0].y[k])
	}
	return x, simplex[0].f
}
