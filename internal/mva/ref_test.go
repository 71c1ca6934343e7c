package mva

// Test-only references: the AMVA solvers as they were before they moved
// onto the accelerated kernel of internal/numeric, each with its own
// loop (Bard and Schweitzer undamped, multiclass damped 0.5), cap and
// stopping rule. They stop when no queue length moves by 1e-14 of 1
// plus itself, instead of by 1e-12 absolute, so that the references'
// own stopping error does not dominate the comparison.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/rng"
)

// approximateRef is the earlier approximate, iterating the queue
// lengths with the arrival-queue estimator est.
func approximateRef(centers []Center, n int, est func(q float64, n int) float64) (Result, error) {
	if err := validate(centers, n); err != nil {
		return Result{}, err
	}
	if n == 0 {
		return finish(centers, 0, make([]float64, len(centers))), nil
	}
	k := len(centers)
	q := make([]float64, k)
	for j := range q {
		q[j] = float64(n) / float64(k)
	}
	r := make([]float64, k)
	for iter := 0; iter < 100000; iter++ {
		total := 0.0
		for j, c := range centers {
			if c.Kind == Delay {
				r[j] = c.Demand
			} else {
				r[j] = c.Demand * (1 + est(q[j], n))
			}
			total += r[j]
		}
		x := float64(n) / total
		delta := 0.0
		for j := range centers {
			nq := x * r[j]
			delta = math.Max(delta, math.Abs(nq-q[j])/(1+math.Abs(nq)))
			q[j] = nq
		}
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return Result{}, fmt.Errorf("mva: approximation diverged (delta = %v) for n=%d", delta, n)
		}
		if delta < 1e-14 {
			return finish(centers, n, r), nil
		}
	}
	return Result{}, fmt.Errorf("mva: approximation did not converge for n=%d", n)
}

// bardEst and schweitzerEst are the estimators the earlier Bard and
// Schweitzer passed approximate.
func bardEst(q float64, _ int) float64 { return q }

func schweitzerEst(q float64, n int) float64 { return q * float64(n-1) / float64(n) }

// multiApproximateRef is the earlier multiApproximate.
func multiApproximateRef(p MultiParams, est func(qTot, qSelf float64, nc int) float64) (MultiResult, error) {
	if err := p.validate(); err != nil {
		return MultiResult{}, err
	}
	C, K := len(p.N), len(p.Centers)
	q := make([][]float64, C)
	r := make([][]float64, C)
	for c := range q {
		q[c] = make([]float64, K)
		r[c] = make([]float64, K)
		for k := range q[c] {
			q[c][k] = float64(p.N[c]) / float64(K)
		}
	}
	x := make([]float64, C)
	total := 0
	for _, n := range p.N {
		total += n
	}
	for iter := 0; iter < 200000; iter++ {
		for c := 0; c < C; c++ {
			if p.N[c] == 0 {
				x[c] = 0
				continue
			}
			sum := 0.0
			for k := 0; k < K; k++ {
				if p.Centers[k].Kind == Delay {
					r[c][k] = p.Demand[c][k]
				} else {
					qTot := 0.0
					for cc := 0; cc < C; cc++ {
						qTot += q[cc][k]
					}
					r[c][k] = p.Demand[c][k] * (1 + est(qTot, q[c][k], p.N[c]))
				}
				sum += r[c][k]
			}
			x[c] = float64(p.N[c]) / sum
		}
		delta := 0.0
		for c := 0; c < C; c++ {
			for k := 0; k < K; k++ {
				nq := 0.5*x[c]*r[c][k] + 0.5*q[c][k]
				delta = math.Max(delta, math.Abs(nq-q[c][k])/(1+math.Abs(nq)))
				q[c][k] = nq
			}
		}
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return MultiResult{}, fmt.Errorf("mva: multiclass approximation diverged (delta = %v)", delta)
		}
		if delta < 1e-14 {
			return multiFinish(p, r, x), nil
		}
	}
	return MultiResult{}, fmt.Errorf("mva: multiclass approximation did not converge")
}

// refTol is the agreement, in numeric.Close's sense, the solvers must
// reach with the references.
const refTol = 1e-8

// closeResults reports whether a and b (Result or MultiResult values)
// agree within refTol in every float field, slices elementwise, the
// Solve stats aside.
func closeResults(a, b any) bool { return closeValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func closeValue(a, b reflect.Value) bool {
	switch {
	case a.Type() == reflect.TypeOf(obs.SolveStats{}):
		return true
	case a.Kind() == reflect.Float64:
		return numeric.Close(a.Float(), b.Float(), refTol)
	case a.Kind() == reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !closeValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !closeValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// randomNetwork draws K ∈ [1, 8] centers, each queueing with
// probability 3/4, with demands log-uniform over six decades.
func randomNetwork(r *rng.Stream) []Center {
	k := 1 + int(r.Uint64()%8)
	centers := make([]Center, k)
	for j := range centers {
		centers[j].Demand = math.Pow(10, 6*r.Float64()-3)
		if r.Uint64()%4 == 0 {
			centers[j].Kind = Delay
		}
	}
	return centers
}

// TestApproximationsMatchReference: Bard, Schweitzer and their
// multiclass forms agree with the loops they replaced within refTol on
// random networks and populations, failing exactly where those failed.
func TestApproximationsMatchReference(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 300; i++ {
		centers := randomNetwork(r)
		n := int(r.Uint64() % 300)
		for _, s := range []struct {
			name  string
			solve func([]Center, int) (Result, error)
			est   func(float64, int) float64
		}{{"Bard", Bard, bardEst}, {"Schweitzer", Schweitzer, schweitzerEst}} {
			got, err := s.solve(centers, n)
			want, refErr := approximateRef(centers, n, s.est)
			if (err != nil) != (refErr != nil) || err == nil && !closeResults(got, want) {
				t.Errorf("%s(%+v, %d) = %+v, %v; reference %+v, %v", s.name, centers, n, got, err, want, refErr)
			}
		}
	}
	for i := 0; i < 200; i++ {
		centers := randomNetwork(r)
		classes := 1 + int(r.Uint64()%3)
		p := MultiParams{Centers: centers, Demand: make([][]float64, classes), N: make([]int, classes)}
		for c := range p.Demand {
			p.N[c] = int(r.Uint64() % 60)
			p.Demand[c] = make([]float64, len(centers))
			for k := range p.Demand[c] {
				p.Demand[c][k] = math.Pow(10, 4*r.Float64()-2)
			}
		}
		for _, s := range []struct {
			name  string
			solve func(MultiParams) (MultiResult, error)
			est   func(float64, float64, int) float64
		}{{"MultiBard", MultiBard, multiBardEst}, {"MultiSchweitzer", MultiSchweitzer, multiSchweitzerEst}} {
			got, err := s.solve(p)
			want, refErr := multiApproximateRef(p, s.est)
			if (err != nil) != (refErr != nil) || err == nil && !closeResults(got, want) {
				t.Errorf("%s(%+v) = %+v, %v; reference %+v, %v", s.name, p, got, err, want, refErr)
			}
		}
	}
}
