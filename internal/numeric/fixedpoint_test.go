package numeric

import (
	"errors"
	"math"
	"testing"
)

// TestFixedPointBracket: a bracket that holds the fixed point is used,
// and one that does not is dropped rather than trusted.
func TestFixedPointBracket(t *testing.T) {
	f := total(func(x float64) float64 { return 0.5*x + 1 }) // fixed point 2
	for _, br := range []Bracket{{Lo: 1, Hi: 3}, {Lo: 3, Hi: 4}, {Lo: 0, Hi: 1.5}} {
		x, info, err := FixedPoint(f, 1.2, br)
		if err != nil || math.Abs(x-2) > 1e-9 {
			t.Errorf("bracket %+v: %v (%+v), %v; want 2", br, x, info, err)
		}
	}
}

// TestFixedPointBracketClipsSteps: a fixed-point step that would leave
// a correct bracket is clipped to its end, so a steep decreasing map is
// never evaluated below the caller's lower bound.
func TestFixedPointBracketClipsSteps(t *testing.T) {
	lowest := math.Inf(1)
	f := func(x float64) (float64, bool) {
		lowest = math.Min(lowest, x)
		return 10 - 2*x, true // fixed point 10/3; F(5) = 0
	}
	x, _, err := FixedPoint(f, 5, Bracket{Lo: 3, Hi: 100})
	if err != nil || math.Abs(x-10.0/3) > 1e-12 || lowest < 3 {
		t.Errorf("x = %v, %v; lowest evaluation %v, want ≥ 3", x, err, lowest)
	}
}

// TestFixedPointBudget: a map with no fixed point and no infeasible
// region runs out of evaluations and says so, on both entry points.
func TestFixedPointBudget(t *testing.T) {
	_, info, err := FixedPoint(total(func(x float64) float64 { return x + 1 }), 0, Unbracketed)
	if !errors.Is(err, ErrNoConvergence) || info.Converged || info.Iters != fixedPointMaxIter {
		t.Errorf("scalar: %+v, %v", info, err)
	}
	info, err = FixedPointVec(func(x, fx []float64) bool {
		fx[0], fx[1] = x[0]+1, x[1]+2
		return true
	}, []float64{0, 0})
	if !errors.Is(err, ErrNoConvergence) || info.Converged || info.Iters != fixedPointMaxIter {
		t.Errorf("vector: %+v, %v", info, err)
	}
}

// TestFixedPointGuardedStart: from a start inside the infeasible region
// the kernel doubles until the map is defined, then finds the root.
func TestFixedPointGuardedStart(t *testing.T) {
	f := func(x float64) (float64, bool) {
		if x < 100 {
			return 0, false
		}
		return 150 + 1000/x, true // decreasing, root near 155.3
	}
	x, info, err := FixedPoint(f, 1, Unbracketed)
	if err != nil || math.Abs(x-(150+1000/x)) > 1e-8*x || info.Iters > 30 {
		t.Errorf("x = %v (%+v), %v", x, info, err)
	}
}

// TestFixedPointBracketClosesOnGuard: a map that is infeasible below 10
// and maps every feasible point below itself has no fixed point. The
// bracket closes on the guard edge within tolerance, and the kernel
// returns that (infeasible) end with ErrNoConvergence, quickly.
func TestFixedPointBracketClosesOnGuard(t *testing.T) {
	f := func(x float64) (float64, bool) {
		if x <= 10 {
			return 0, false
		}
		return 5, true
	}
	x, info, err := FixedPoint(f, 1, Unbracketed)
	if !errors.Is(err, ErrNoConvergence) || info.Converged {
		t.Fatalf("err = %v, info %+v; want ErrNoConvergence", err, info)
	}
	if x > 10 || x < 10*(1-1e-9) {
		t.Errorf("returned %v, want the guard edge 10 from the infeasible side", x)
	}
	if info.Iters > 60 {
		t.Errorf("took %d evaluations, want a bisection's worth", info.Iters)
	}
}

// TestFixedPointSteepRoot: a root next to the infeasible region, where
// F − x falls steeply (a retry storm's attempt multiplier), is found to
// full accuracy.
func TestFixedPointSteepRoot(t *testing.T) {
	f := func(x float64) (float64, bool) {
		q := math.Exp(-x / 50) // conflict probability, falls as x grows
		if q >= 0.999 {
			return 0, false
		}
		return 1 + 20/(1-q), true
	}
	x, info, err := FixedPoint(f, 1, Unbracketed)
	fx, _ := f(x)
	if err != nil || math.Abs(fx-x) > 1e-10*(1+x) {
		t.Errorf("x = %v, F(x) = %v (%+v), %v", x, fx, info, err)
	}
}

// TestFixedPointVecLinear: a coupled linear contraction converges to its
// solution, and mixing takes far fewer evaluations than the 300 or so
// plain iteration needs at this contraction rate.
func TestFixedPointVecLinear(t *testing.T) {
	// x = A·x + b with A = 0.9·(rotation-ish coupling); solution found by
	// checking the residual.
	f := func(x, fx []float64) bool {
		fx[0] = 0.5*x[0] + 0.4*x[1] + 1
		fx[1] = 0.4*x[0] + 0.5*x[2] + 2
		fx[2] = 0.45*x[1] + 0.45*x[2] + 3
		return true
	}
	x := []float64{0, 0, 0}
	info, err := FixedPointVec(f, x)
	if err != nil || !info.Converged {
		t.Fatalf("%+v, %v", info, err)
	}
	fx := make([]float64, 3)
	f(x, fx)
	for j := range x {
		if math.Abs(fx[j]-x[j]) > 1e-10*(1+math.Abs(x[j])) {
			t.Errorf("component %d: x %v, F(x) %v", j, x[j], fx[j])
		}
	}
	if info.Iters > 30 {
		t.Errorf("took %d evaluations, want mixing to beat plain iteration", info.Iters)
	}
}

// TestFixedPointVecComponentwise: every component meets the tolerance
// relative to its own magnitude, not the largest one's.
func TestFixedPointVecComponentwise(t *testing.T) {
	f := func(x, fx []float64) bool {
		fx[0] = 0.5*x[0] + 1e7
		fx[1] = 0.9*x[1] + 1e-3 + 1e-12*x[0]
		return true
	}
	x := []float64{0, 0}
	if _, err := FixedPointVec(f, x); err != nil {
		t.Fatal(err)
	}
	want := 1e-2 + 1e-11*x[0]
	if math.Abs(x[1]-want) > 1e-9*want {
		t.Errorf("small component %v, want %v", x[1], want)
	}
}
