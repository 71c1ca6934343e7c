// Package dist provides the service-time distributions used by the LoPC
// simulator and workload generators.
//
// The LoPC model is parameterized by the mean service time of message
// handlers and, optionally, by the squared coefficient of variation
// (SCV, written C² in the paper) of that service time. The simulator
// therefore needs families of non-negative distributions whose mean and
// SCV can be dialed independently: deterministic (C²=0), uniform,
// Erlang-k (C²=1/k), exponential (C²=1), and two-phase balanced-means
// hyperexponential (C²>1). FromMeanSCV picks the standard family for a
// requested (mean, C²) pair, which is how experiments sweep the
// variability axis of Figure 5-1.
package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// A Distribution generates non-negative service or work times and
// reports its exact first two moments. Mean and SCV return the
// analytical values, not sample estimates, so model predictions and
// simulator inputs are parameterized identically.
type Distribution interface {
	// Sample draws one value using the given stream.
	Sample(r *rng.Stream) float64
	// Mean returns the distribution mean.
	Mean() float64
	// SCV returns the squared coefficient of variation Var/Mean².
	SCV() float64
	// String describes the distribution for experiment logs.
	String() string
}

// Deterministic is the constant distribution: every sample equals Value.
// Its SCV is 0, the paper's model for short fixed-length handlers.
type Deterministic struct {
	Value float64
}

// NewDeterministic returns the constant distribution at v. It panics
// unless v is finite and non-negative: service and work times are
// durations.
func NewDeterministic(v float64) Deterministic {
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	if !(v >= 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("dist: invalid deterministic value %v", v))
	}
	return Deterministic{Value: v}
}

// Sample implements Distribution.
func (d Deterministic) Sample(*rng.Stream) float64 { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// SCV implements Distribution.
func (d Deterministic) SCV() float64 { return 0 }

func (d Deterministic) String() string { return fmt.Sprintf("Deterministic(%g)", d.Value) }

// Exponential is the exponential distribution with the given mean
// (SCV = 1), the default handler-time assumption of the LoPC model.
type Exponential struct {
	MeanValue float64
}

// NewExponential returns an exponential distribution with mean m. It
// panics unless m is finite and positive.
func NewExponential(m float64) Exponential {
	if !(m > 0) || math.IsInf(m, 1) {
		panic(fmt.Sprintf("dist: invalid exponential mean %v", m))
	}
	return Exponential{MeanValue: m}
}

// Sample implements Distribution.
func (d Exponential) Sample(r *rng.Stream) float64 { return d.MeanValue * r.ExpFloat64() }

// Mean implements Distribution.
func (d Exponential) Mean() float64 { return d.MeanValue }

// SCV implements Distribution.
func (d Exponential) SCV() float64 { return 1 }

func (d Exponential) String() string { return fmt.Sprintf("Exponential(%g)", d.MeanValue) }

// Uniform is the continuous uniform distribution on [Low, High].
type Uniform struct {
	Low, High float64
}

// NewUniform returns the uniform distribution on [low, high]. It
// panics unless 0 <= low <= high < +Inf.
func NewUniform(low, high float64) Uniform {
	if !(low >= 0) || !(high >= low) || math.IsInf(high, 1) {
		panic(fmt.Sprintf("dist: invalid uniform bounds [%v, %v]", low, high))
	}
	return Uniform{Low: low, High: high}
}

// Sample implements Distribution.
func (d Uniform) Sample(r *rng.Stream) float64 {
	return d.Low + (d.High-d.Low)*r.Float64()
}

// Mean implements Distribution.
func (d Uniform) Mean() float64 { return (d.Low + d.High) / 2 }

// SCV implements Distribution.
func (d Uniform) SCV() float64 {
	m := d.Mean()
	//lopc:allow floateq mean is exactly zero only for the degenerate [0,0] bounds, where SCV is 0 by convention
	if m == 0 {
		return 0
	}
	v := (d.High - d.Low) * (d.High - d.Low) / 12
	return v / (m * m)
}

func (d Uniform) String() string { return fmt.Sprintf("Uniform[%g,%g]", d.Low, d.High) }

// Erlang is the Erlang-k distribution (sum of K independent
// exponentials), with SCV = 1/K. It fills in the low-variability range
// 0 < C² < 1 between deterministic and exponential handlers.
type Erlang struct {
	K         int
	MeanValue float64
}

// NewErlang returns an Erlang-k distribution with the given shape and
// mean.
func NewErlang(k int, mean float64) Erlang {
	if k < 1 {
		panic(fmt.Sprintf("dist: Erlang shape %d < 1", k))
	}
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid Erlang mean %v", mean))
	}
	return Erlang{K: k, MeanValue: mean}
}

// Sample implements Distribution.
func (d Erlang) Sample(r *rng.Stream) float64 {
	return d.MeanValue / float64(d.K) * expSum(r, d.K)
}

// expSum returns the sum of k unit exponentials. It uses the
// product-of-uniforms identity in chunks, flushing the product into a
// log whenever it risks underflow — a straight product of hundreds of
// uniforms underflows float64 to 0 and would yield +Inf.
func expSum(r *rng.Stream, k int) float64 {
	sum := 0.0
	prod := 1.0
	count := 0
	for i := 0; i < k; i++ {
		prod *= r.Float64Open()
		count++
		if count == 16 || prod < 1e-280 {
			sum -= math.Log(prod)
			prod, count = 1.0, 0
		}
	}
	if count > 0 {
		sum -= math.Log(prod)
	}
	return sum
}

// Mean implements Distribution.
func (d Erlang) Mean() float64 { return d.MeanValue }

// SCV implements Distribution.
func (d Erlang) SCV() float64 { return 1 / float64(d.K) }

func (d Erlang) String() string { return fmt.Sprintf("Erlang(k=%d, mean=%g)", d.K, d.MeanValue) }

// HyperExp2 is a two-phase hyperexponential distribution with balanced
// means: with probability P1 the sample is exponential with mean Mean1,
// otherwise exponential with mean Mean2. It provides SCV > 1.
type HyperExp2 struct {
	P1           float64
	Mean1, Mean2 float64
}

// NewHyperExp2Balanced constructs the standard balanced-means two-phase
// hyperexponential with the requested mean and SCV. It panics unless
// scv > 1 (use Erlang or Exponential otherwise).
func NewHyperExp2Balanced(mean, scv float64) HyperExp2 {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid hyperexponential mean %v", mean))
	}
	if !(scv > 1) || math.IsInf(scv, 1) {
		panic(fmt.Sprintf("dist: hyperexponential requires SCV > 1, got %v", scv))
	}
	// Balanced means: p1/λ1 = p2/λ2 = mean/2. Then
	// p1 = (1 + sqrt((scv-1)/(scv+1)))/2, mean_i = mean/(2 p_i).
	p1 := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
	return HyperExp2{
		P1:    p1,
		Mean1: mean / (2 * p1),
		Mean2: mean / (2 * (1 - p1)),
	}
}

// Sample implements Distribution.
func (d HyperExp2) Sample(r *rng.Stream) float64 {
	m := d.Mean2
	if r.Float64() < d.P1 {
		m = d.Mean1
	}
	return m * r.ExpFloat64()
}

// Mean implements Distribution.
func (d HyperExp2) Mean() float64 {
	return d.P1*d.Mean1 + (1-d.P1)*d.Mean2
}

// SCV implements Distribution.
func (d HyperExp2) SCV() float64 {
	m := d.Mean()
	m2 := 2 * (d.P1*d.Mean1*d.Mean1 + (1-d.P1)*d.Mean2*d.Mean2)
	return m2/(m*m) - 1
}

func (d HyperExp2) String() string {
	return fmt.Sprintf("HyperExp2(p1=%.4f, m1=%g, m2=%g)", d.P1, d.Mean1, d.Mean2)
}

// ErlangMix interpolates between Erlang-(k+1) and Erlang-k to hit an
// exact SCV in (1/(k+1), 1/k): with probability P the sample is
// Erlang-(K+1), otherwise Erlang-K, both with rate Lambda per stage.
// This is the standard phase-type construction for 0 < C² < 1 when 1/C²
// is not an integer.
type ErlangMix struct {
	K      int
	P      float64
	Lambda float64 // per-stage rate
}

// NewErlangMix constructs the Erlang mixture matching the requested
// mean and SCV with 0 < scv < 1.
func NewErlangMix(mean, scv float64) ErlangMix {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid ErlangMix mean %v", mean))
	}
	if !(scv > 0 && scv < 1) {
		panic(fmt.Sprintf("dist: ErlangMix requires 0 < SCV < 1, got %v", scv))
	}
	// Choose k with 1/(k+1) <= scv < 1/k, mix Erlang-k and Erlang-(k+1).
	k := int(math.Floor(1 / scv))
	if k < 1 {
		k = 1
	}
	// Standard moment-matching (Tijms, "Stochastic Models"), stated for
	// a mixture of Erlang-(j-1) and Erlang-j with j = k+1 stages and a
	// common per-stage rate λ:
	//   p = [j·scv − sqrt(j(1+scv) − j²·scv)] / (1+scv),  λ = (j−p)/mean
	j := float64(k + 1)
	p := (j*scv - math.Sqrt(j*(1+scv)-j*j*scv)) / (1 + scv)
	// Clamp tiny excursions from floating-point error at the boundaries
	// scv = 1/(k+1) and scv = 1/k.
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	lambda := (j - p) / mean
	return ErlangMix{K: k, P: p, Lambda: lambda}
}

// Sample implements Distribution.
func (d ErlangMix) Sample(r *rng.Stream) float64 {
	stages := d.K + 1
	if r.Float64() < d.P {
		stages = d.K
	}
	return expSum(r, stages) / d.Lambda
}

// Mean implements Distribution.
func (d ErlangMix) Mean() float64 {
	fk := float64(d.K)
	return (d.P*fk + (1-d.P)*(fk+1)) / d.Lambda
}

// SCV implements Distribution.
func (d ErlangMix) SCV() float64 {
	fk := float64(d.K)
	// E[N] and E[N(N+1)] for the random stage count N.
	en := d.P*fk + (1-d.P)*(fk+1)
	m2 := (d.P*fk*(fk+1) + (1-d.P)*(fk+1)*(fk+2)) / (d.Lambda * d.Lambda)
	mean := en / d.Lambda
	return m2/(mean*mean) - 1
}

func (d ErlangMix) String() string {
	return fmt.Sprintf("ErlangMix(k=%d, p=%.4f, λ=%g)", d.K, d.P, d.Lambda)
}

// LowerBound returns a proven lower bound on every sample d can draw —
// the lookahead a parallel simulation may bank on when d models a
// cross-node latency. Deterministic and Uniform have exact bounds;
// other families (or unknown implementations without a LowerBound
// method) are unbounded below short of zero, which disables parallel
// overlap rather than risking a causality violation.
func LowerBound(d Distribution) float64 {
	switch v := d.(type) {
	case Deterministic:
		return v.Value
	case Uniform:
		return v.Low
	}
	if b, ok := d.(interface{ LowerBound() float64 }); ok {
		return b.LowerBound()
	}
	return 0
}

// FromMeanSCV returns a distribution with the exact requested mean and
// squared coefficient of variation:
//
//	scv == 0:   Deterministic
//	0<scv<1:    Erlang-k for scv == 1/k, otherwise an Erlang mixture
//	scv == 1:   Exponential
//	scv > 1:    balanced-means two-phase hyperexponential
//
// This is the single knob the paper calls C² and is how experiment
// sweeps construct handler-time distributions. It panics unless scv is
// finite and non-negative and mean finite and positive (a zero mean
// with zero scv is allowed and yields Deterministic(0)).
func FromMeanSCV(mean, scv float64) Distribution {
	if !(scv >= 0) || math.IsInf(scv, 1) {
		panic(fmt.Sprintf("dist: invalid SCV %v", scv))
	}
	//lopc:allow floateq zero is an exact sentinel: only literal (0, 0) selects the degenerate distribution
	if mean == 0 && scv == 0 {
		return Deterministic{Value: 0}
	}
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("dist: invalid mean %v with SCV %v", mean, scv))
	}
	switch {
	//lopc:allow floateq the C² knob selects families at exact sentinels; near-zero SCV legitimately picks a high-k Erlang
	case scv == 0:
		return NewDeterministic(mean)
	//lopc:allow floateq exact C²=1 selects Exponential; values near 1 pick the matching Erlang mixture or hyperexponential
	case scv == 1:
		return NewExponential(mean)
	case scv < 1:
		// Prefer the pure Erlang when 1/scv is (nearly) integral.
		if k := 1 / scv; math.Abs(k-math.Round(k)) < 1e-9 {
			return NewErlang(int(math.Round(k)), mean)
		}
		return NewErlangMix(mean, scv)
	default:
		return NewHyperExp2Balanced(mean, scv)
	}
}
