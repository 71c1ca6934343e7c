package numeric

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// total lifts a map defined everywhere to the kernel's (value,
// feasible) form.
func total(f func(float64) float64) func(float64) (float64, bool) {
	return func(x float64) (float64, bool) { return f(x), true }
}

func TestFixedPointLinearContraction(t *testing.T) {
	// f(x) = 0.5x + 1 has fixed point 2.
	x, info, err := FixedPoint(total(func(x float64) float64 { return 0.5*x + 1 }), 0, Unbracketed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2) > 1e-8 || !info.Converged {
		t.Fatalf("fixed point = %v (%+v), want 2", x, info)
	}
}

func TestFixedPointCosine(t *testing.T) {
	// The Dottie number: cos(x) = x near 0.739085.
	x, _, err := FixedPoint(total(math.Cos), 1, Unbracketed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-0.7390851332151607) > 1e-8 {
		t.Fatalf("fixed point = %v, want Dottie number", x)
	}
}

// TestFixedPointDampingStabilizesOscillation: f(x) = −x + 4 oscillates
// under plain iteration from any x ≠ 2; the bracketed secant lands on 2
// in a few evaluations.
func TestFixedPointDampingStabilizesOscillation(t *testing.T) {
	x, info, err := FixedPoint(total(func(x float64) float64 { return -x + 4 }), 10, Unbracketed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2) > 1e-8 || info.Iters > 4 {
		t.Fatalf("fixed point = %v after %d evaluations, want 2 in at most 4", x, info.Iters)
	}
}

func TestFixedPointInvalidOpts(t *testing.T) {
	for _, c := range []struct {
		x0 float64
		br Bracket
	}{
		{math.NaN(), Unbracketed},
		{math.Inf(1), Unbracketed},
		{1, Bracket{Lo: 2, Hi: 1}},
		{1, Bracket{Lo: math.NaN(), Hi: 1}},
	} {
		if _, _, err := FixedPoint(total(math.Cos), c.x0, c.br); err == nil {
			t.Errorf("start %v in %+v should be rejected", c.x0, c.br)
		}
	}
	if _, err := FixedPointVec(func(x, fx []float64) bool { return true }, nil); err == nil {
		t.Error("empty vector should be rejected")
	}
}

func TestFixedPointNaN(t *testing.T) {
	_, _, err := FixedPoint(total(func(float64) float64 { return math.NaN() }), 1, Unbracketed)
	if err == nil {
		t.Fatal("NaN map should be rejected")
	}
	_, err = FixedPointVec(func(x, fx []float64) bool { fx[0] = math.Inf(1); return true }, []float64{1})
	if err == nil {
		t.Fatal("infinite vector map should be rejected")
	}
}

func TestBisectSqrt2(t *testing.T) {
	r, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-math.Sqrt2) > 1e-10 {
		t.Fatalf("root = %v, want sqrt(2)", r)
	}
}

func TestBisectSwappedEndpoints(t *testing.T) {
	r, err := Bisect(func(x float64) float64 { return x - 1 }, 2, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-10 {
		t.Fatalf("root = %v, want 1", r)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err == nil {
		t.Fatal("non-bracketing interval should error")
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	r, err := Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if err != nil || r != 0 {
		t.Fatalf("root = %v err = %v, want 0, nil", r, err)
	}
}

func TestPolyHorner(t *testing.T) {
	// 2 + 3x + x² at x = 4 -> 2 + 12 + 16 = 30.
	if v := Poly([]float64{2, 3, 1}, 4); v != 30 {
		t.Fatalf("Poly = %v, want 30", v)
	}
}

func TestPolyDeriv(t *testing.T) {
	// d/dx (2 + 3x + x²) = 3 + 2x
	d := PolyDeriv([]float64{2, 3, 1})
	if len(d) != 2 || d[0] != 3 || d[1] != 2 {
		t.Fatalf("PolyDeriv = %v, want [3 2]", d)
	}
	if d := PolyDeriv([]float64{5}); len(d) != 1 || d[0] != 0 {
		t.Fatalf("PolyDeriv(const) = %v, want [0]", d)
	}
}

func TestPolyRealRootsQuadratic(t *testing.T) {
	// (x-1)(x-3) = 3 - 4x + x²
	roots := PolyRealRootsIn([]float64{3, -4, 1}, -10, 10)
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want two", roots)
	}
	if math.Abs(roots[0]-1) > 1e-8 || math.Abs(roots[1]-3) > 1e-8 {
		t.Fatalf("roots = %v, want [1 3]", roots)
	}
}

func TestPolyRealRootsQuartic(t *testing.T) {
	// (x-1)(x-2)(x-3)(x-4) = 24 - 50x + 35x² - 10x³ + x⁴
	roots := PolyRealRootsIn([]float64{24, -50, 35, -10, 1}, 0, 10)
	want := []float64{1, 2, 3, 4}
	if len(roots) != 4 {
		t.Fatalf("roots = %v, want four", roots)
	}
	for i, w := range want {
		if math.Abs(roots[i]-w) > 1e-6 {
			t.Fatalf("roots = %v, want %v", roots, want)
		}
	}
}

func TestPolyRealRootsNoneInRange(t *testing.T) {
	roots := PolyRealRootsIn([]float64{3, -4, 1}, 5, 10) // roots 1, 3 outside
	if len(roots) != 0 {
		t.Fatalf("roots = %v, want none", roots)
	}
}

func TestPolyRealRootsConstant(t *testing.T) {
	if roots := PolyRealRootsIn([]float64{5}, -1, 1); len(roots) != 0 {
		t.Fatalf("roots of constant = %v, want none", roots)
	}
}

// TestPolyRootsProperty builds random monic cubics from known roots and
// checks they are recovered.
func TestPolyRootsProperty(t *testing.T) {
	f := func(a8, b8, c8 int8) bool {
		// Distinct roots in [-20, 20], separated by at least 1 to keep
		// bisection well-conditioned.
		rs := []float64{float64(a8 % 20), float64(a8%20) + 1 + float64(b8%10+10)/4, float64(a8%20) + 10 + float64(c8%10+10)/4}
		sort.Float64s(rs)
		// (x-r0)(x-r1)(x-r2)
		c := []float64{
			-rs[0] * rs[1] * rs[2],
			rs[0]*rs[1] + rs[0]*rs[2] + rs[1]*rs[2],
			-(rs[0] + rs[1] + rs[2]),
			1,
		}
		got := PolyRealRootsIn(c, -100, 100)
		if len(got) != 3 {
			return false
		}
		for i := range rs {
			if math.Abs(got[i]-rs[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
