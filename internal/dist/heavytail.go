package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Lognormal is the lognormal distribution parameterized by the
// underlying normal's mean Mu and standard deviation Sigma. Work-pile
// chunk sizes and real RPC service times are often approximately
// lognormal; the distribution provides moderate-to-heavy right tails
// with all moments finite.
type Lognormal struct {
	Mu, Sigma float64
}

// NewLognormalMeanSCV returns the lognormal with the given mean and
// squared coefficient of variation (any scv > 0 is representable:
// σ² = ln(1+scv), μ = ln mean − σ²/2).
func NewLognormalMeanSCV(mean, scv float64) Lognormal {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid lognormal mean %v", mean))
	}
	if !(scv > 0) || math.IsInf(scv, 1) {
		panic(fmt.Sprintf("dist: lognormal requires SCV > 0, got %v", scv))
	}
	sigma2 := math.Log(1 + scv)
	return Lognormal{Mu: math.Log(mean) - sigma2/2, Sigma: math.Sqrt(sigma2)}
}

// Sample implements Distribution.
func (d Lognormal) Sample(r *rng.Stream) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Mean implements Distribution.
func (d Lognormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// SCV implements Distribution.
func (d Lognormal) SCV() float64 { return math.Exp(d.Sigma*d.Sigma) - 1 }

func (d Lognormal) String() string { return fmt.Sprintf("Lognormal(μ=%g, σ=%g)", d.Mu, d.Sigma) }

// Lomax is the Lomax (shifted Pareto) distribution with shape Alpha and
// scale Lambda: a genuinely heavy-tailed family. The mean is finite for
// Alpha > 1 and the variance for Alpha > 2.
type Lomax struct {
	Alpha, Lambda float64
}

// NewLomaxMeanSCV returns the Lomax distribution with the given mean
// and squared coefficient of variation. The Lomax SCV is α/(α−2), which
// is always above 1, so scv > 1 is required; α = 2·scv/(scv−1) and
// λ = mean·(α−1).
func NewLomaxMeanSCV(mean, scv float64) Lomax {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid Lomax mean %v", mean))
	}
	if !(scv > 1) || math.IsInf(scv, 1) {
		panic(fmt.Sprintf("dist: Lomax requires SCV > 1, got %v", scv))
	}
	alpha := 2 * scv / (scv - 1)
	return Lomax{Alpha: alpha, Lambda: mean * (alpha - 1)}
}

// Sample implements Distribution (inverse CDF: λ((1−u)^(−1/α) − 1)).
func (d Lomax) Sample(r *rng.Stream) float64 {
	u := r.Float64Open()
	return d.Lambda * (math.Pow(u, -1/d.Alpha) - 1)
}

// Mean implements Distribution (+Inf when Alpha <= 1).
func (d Lomax) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Lambda / (d.Alpha - 1)
}

// SCV implements Distribution (+Inf when Alpha <= 2).
func (d Lomax) SCV() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	return d.Alpha / (d.Alpha - 2)
}

func (d Lomax) String() string { return fmt.Sprintf("Lomax(α=%g, λ=%g)", d.Alpha, d.Lambda) }
