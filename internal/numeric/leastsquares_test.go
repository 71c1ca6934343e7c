package numeric

import (
	"errors"
	"math"
	"testing"

	"repro/internal/allocguard"
)

var unbounded = []float64{math.Inf(-1), math.Inf(-1)}

// rosenbrock is the banana function as residuals: (10(y−x²), 1−x),
// minimum 0 at (1, 1).
func rosenbrock(x, r []float64) bool {
	r[0] = 10 * (x[1] - x[0]*x[0])
	r[1] = 1 - x[0]
	return true
}

func TestLeastSquaresRosenbrock(t *testing.T) {
	x := []float64{-1.2, 1}
	loss, evals, err := LeastSquares(rosenbrock, x, unbounded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-6 || math.Abs(x[1]-1) > 1e-6 || loss > 1e-12 {
		t.Errorf("minimum at %v, loss %v; want (1, 1), 0", x, loss)
	}
	t.Logf("%d evaluations", evals)
}

// TestLeastSquaresOptimumOnBound: the unconstrained minimum (−2, 3)
// lies outside x ≥ 0, so the run must end with x exactly on its bound
// and y still free to reach 3.
func TestLeastSquaresOptimumOnBound(t *testing.T) {
	f := func(x, r []float64) bool {
		r[0], r[1] = x[0]+2, x[1]-3
		return true
	}
	x := []float64{5, 0}
	loss, _, err := LeastSquares(f, x, []float64{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] > 0 || math.Abs(x[1]-3) > 1e-8 || math.Abs(loss-4) > 1e-12 {
		t.Errorf("minimum at %v, loss %v; want (0, 3), 4", x, loss)
	}
}

// TestLeastSquaresUnderdetermined: one residual in two parameters, as
// a single-observation lock fit has. Any point on the line x + 2y = 3
// is a minimum; the run must reach one of them, inside the bounds.
func TestLeastSquaresUnderdetermined(t *testing.T) {
	f := func(x, r []float64) bool {
		r[0] = x[0] + 2*x[1] - 3
		return true
	}
	x := []float64{10, 7}
	loss, _, err := LeastSquares(f, x, []float64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-20 || x[0] < 0 || x[1] < 0 {
		t.Errorf("ended at %v with loss %v", x, loss)
	}
}

// TestLeastSquaresInfeasible: a callback that reports infeasible
// points (x < 1, as a utilization at or past 1 would) keeps the run
// out of them, and an infeasible start is an error.
func TestLeastSquaresInfeasible(t *testing.T) {
	calls := 0
	f := func(x, r []float64) bool {
		calls++
		if x[0] < 1 {
			return false
		}
		r[0] = 4 - x[0]*x[0] // minimum at 2, approached from the feasible side
		r[1] = 0.1 * (x[0] - 2)
		return true
	}
	x := []float64{1.1}
	loss, evals, err := LeastSquares(f, x, []float64{math.Inf(-1)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 || loss > 1e-16 || evals != calls {
		t.Errorf("minimum at %v, loss %v, %d evaluations reported of %d", x, loss, evals, calls)
	}
	// A step into the infeasible region is rejected, not taken: from 3
	// the Gauss–Newton step lands on 0.5, past the feasible edge at 1.
	g := func(x, r []float64) bool {
		if x[0] < 1 {
			return false
		}
		r[0] = x[0] - 0.5
		return true
	}
	x = []float64{3}
	loss, _, err = LeastSquares(g, x, []float64{math.Inf(-1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] < 1 || x[0] > 1+1e-6 || math.Abs(loss-0.25) > 1e-5 {
		t.Errorf("ended at %v with loss %v; want the feasible edge 1, loss 0.25", x, loss)
	}
	if _, _, err := LeastSquares(g, []float64{0.5}, []float64{math.Inf(-1)}, 1); err == nil {
		t.Error("infeasible start accepted")
	}
	nan := func(x, r []float64) bool { r[0] = math.NaN(); return true }
	if _, _, err := LeastSquares(nan, []float64{1}, []float64{0}, 1); err == nil {
		t.Error("NaN residual at the start accepted")
	}
}

// TestLeastSquaresStepCap: r(x) = sign(x)·|x|^0.51 has its only zero
// at a root where the residual is barely steeper than √x, so each
// step overshoots to the other side and lowers the loss by a few
// percent: after 1000 accepted steps the run is still making progress
// and ends with ErrNoConvergence, leaving in x the best point found.
func TestLeastSquaresStepCap(t *testing.T) {
	f := func(x, r []float64) bool {
		r[0] = math.Copysign(math.Pow(math.Abs(x[0]), 0.51), x[0])
		return true
	}
	x := []float64{1}
	loss, evals, err := LeastSquares(f, x, []float64{math.Inf(-1)}, 1)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("ended at %v with loss %v, error %v; want ErrNoConvergence", x, loss, err)
	}
	r := []float64{0}
	f(x, r)
	if !(loss < 1) || loss != r[0]*r[0] || evals != 1+2*lsMaxIter {
		t.Errorf("ended at %v with loss %v (recomputed %v) after %d evaluations; want the last of %d accepted steps, below the start's 1",
			x, loss, r[0]*r[0], evals, lsMaxIter)
	}
}

// TestLeastSquaresResidualTurnsNaN: the residual x − 3 turns NaN past
// x = 2, after a feasible start at 0. The first Gauss–Newton step
// lands on 3 and must be rejected, as must every later step past 2:
// the run ends finite, inside the region where the residual is defined.
func TestLeastSquaresResidualTurnsNaN(t *testing.T) {
	nans := 0
	f := func(x, r []float64) bool {
		r[0] = x[0] - 3
		if x[0] > 2 {
			nans++
			r[0] = math.NaN()
		}
		return true
	}
	x := []float64{0}
	loss, _, err := LeastSquares(f, x, []float64{math.Inf(-1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nans == 0 {
		t.Fatal("no step reached the NaN region")
	}
	if !(x[0] <= 2) || x[0] < 2-1e-5 || loss != (x[0]-3)*(x[0]-3) {
		t.Errorf("ended at %v with loss %v; want the edge 2 from below, loss 1", x, loss)
	}
}

func TestLeastSquaresInvalidInput(t *testing.T) {
	cases := []struct {
		name  string
		x, lo []float64
		m     int
	}{
		{"no parameters", nil, nil, 1},
		{"bounds length", []float64{1, 2}, []float64{0}, 2},
		{"no residuals", []float64{1}, []float64{0}, 0},
		{"start below bound", []float64{-1}, []float64{0}, 1},
		{"NaN start", []float64{math.NaN()}, []float64{0}, 1},
	}
	for _, c := range cases {
		if _, _, err := LeastSquares(rosenbrock, c.x, c.lo, c.m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestLeastSquaresAllocs: the kernel allocates its workspace once per
// run, whatever the number of steps.
func TestLeastSquaresAllocs(t *testing.T) {
	x := make([]float64, 2)
	from := func(x0, y0 float64) allocguard.Solve {
		return func() (int, error) {
			x[0], x[1] = x0, y0
			_, evals, err := LeastSquares(rosenbrock, x, unbounded, 2)
			return evals, err
		}
	}
	allocguard.Iters(t, from(0.9, 0.8), from(-1.2, 1), 1)
}
