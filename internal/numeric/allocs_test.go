package numeric

import (
	"math"
	"testing"

	"repro/internal/allocguard"
)

// TestSteadyStateAllocs guards the kernel's steady state by
// measurement: each entry point solves a quick and a slow problem, the
// second taking several more map evaluations, and both must allocate
// equally often. The scalar kernel allocates nothing at all; the vector
// kernel allocates its workspace once per solve.
func TestSteadyStateAllocs(t *testing.T) {
	scalar := total(func(x float64) float64 { return 1000/(1+x) + 0.1*x })
	scalarFrom := func(x0 float64) allocguard.Solve {
		return func() (int, error) {
			_, info, err := FixedPoint(scalar, x0, Unbracketed)
			return info.Iters, err
		}
	}
	x := make([]float64, 16)
	// rate sets the contraction of a coupled sine map: near 1 it takes
	// many more evaluations than near 0.
	vec := func(rate float64) allocguard.Solve {
		f := func(x, fx []float64) bool {
			for j := range x {
				fx[j] = rate*math.Sin(x[(j+1)%len(x)]) + 1 + 0.01*float64(j)
			}
			return true
		}
		return func() (int, error) {
			clear(x)
			info, err := FixedPointVec(f, x)
			return info.Iters, err
		}
	}
	rows := []struct {
		name        string
		quick, slow allocguard.Solve
		max         int
	}{
		{"secantLoop", scalarFrom(30), scalarFrom(1e12), 0},
		{"andersonLoop", vec(0.1), vec(0.99), 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { allocguard.Iters(t, row.quick, row.slow, row.max) })
	}
}
