package mva

import (
	"errors"
	"math"
	"testing"
)

// The largest relative throughput gap of the approximations to exact
// MVA at populations up to approxGapMaxN. Bard's is sharp: one customer
// at one queueing center sees itself queued and halves the throughput.
// Schweitzer's is the largest gap measured over 200,000 random networks
// of up to five centers and a grid of balanced networks of up to 64
// queueing centers (6.8%, one queueing and one delay center at N=5),
// rounded up.
const (
	approxGapMaxN = 16
	bardGap       = 0.5
	schweitzerGap = 0.08
)

// The fuzzed domain: populations up to fuzzMaxN keep exact MVA's O(N)
// recursion fast, and demands within fuzzDemandRange of 1 (or zero)
// keep N/ΣR from overflowing.
const (
	fuzzMaxN        = 1 << 14
	fuzzDemandRange = 1e100
)

// FuzzExact checks exact MVA against the invariants of a closed
// network, and the approximations against it at small populations.
// kinds selects the network: bits 4–5 give the number of centers
// (1 to 4, with demands d0–d3), and bit j makes center j a delay
// center. Invalid demands and populations, and networks with too
// little demand for a finite throughput N/ΣD, must be rejected with
// ErrInvalid by every solver.
func FuzzExact(f *testing.F) {
	f.Add(8, uint8(0x10), 1.0, 2.0, 0.0, 0.0)         // queueing + queueing
	f.Add(5, uint8(0x12), 1.0, 2.0, 0.0, 0.0)         // Schweitzer's worst: queueing + delay, N=5
	f.Add(1, uint8(0x00), 32.85, 0.0, 0.0, 0.0)       // Bard's worst: one customer, one center
	f.Add(16, uint8(0x31), 1500.0, 32.0, 65.0, 131.0) // a work-pile: delay + three servers
	f.Add(4096, uint8(0x20), 0.5, 0.25, 1e-3, 0.0)
	f.Add(0, uint8(0x10), 1.0, 1.0, 0.0, 0.0)
	f.Add(3, uint8(0x10), 1.0, 0.0, 0.0, 0.0)  // a zero-demand center
	f.Add(-1, uint8(0x00), 1.0, 0.0, 0.0, 0.0) // negative population
	f.Add(3, uint8(0x10), math.Inf(1), 1.0, 0.0, 0.0)
	f.Add(3, uint8(0x10), 1.0, math.Inf(-1), 0.0, 0.0)
	f.Add(3, uint8(0x00), math.NaN(), 0.0, 0.0, 0.0)
	f.Add(3, uint8(0x00), -1.0, 0.0, 0.0, 0.0)
	f.Add(3, uint8(0x10), 0.0, 0.0, 0.0, 0.0)    // no demand at all
	f.Add(3, uint8(0x00), 5e-324, 0.0, 0.0, 0.0) // N/ΣD overflows
	f.Fuzz(func(t *testing.T, n int, kinds uint8, d0, d1, d2, d3 float64) {
		if n > fuzzMaxN {
			t.Skip("population beyond the fuzzed range")
		}
		centers := make([]Center, 1+int(kinds>>4)%4)
		valid, inRange, total, dmax := n >= 0, true, 0.0, 0.0
		for j, d := range []float64{d0, d1, d2, d3}[:len(centers)] {
			centers[j] = Center{Kind: Queueing, Demand: d}
			if kinds&(1<<j) != 0 {
				centers[j].Kind = Delay
			}
			valid = valid && validDemand(d)
			inRange = inRange && (d == 0 || d >= 1/fuzzDemandRange && d <= fuzzDemandRange)
			total += d
			if centers[j].Kind == Queueing {
				dmax = math.Max(dmax, d)
			}
		}
		valid = valid && !(n > 0 && math.IsInf(float64(n)/total, 1))
		res, err := Exact(centers, n)
		if !valid {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Exact(%+v, %d): error %v, want ErrInvalid", centers, n, err)
			}
			if _, err := Bard(centers, n); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Bard(%+v, %d): error %v, want ErrInvalid", centers, n, err)
			}
			if _, err := Schweitzer(centers, n); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Schweitzer(%+v, %d): error %v, want ErrInvalid", centers, n, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Exact(%+v, %d): %v", centers, n, err)
		}
		// Outside the demand range the invariant checks themselves can
		// overflow; with N = 0 and no demand there is nothing to check.
		if !inRange || !(total > 0) {
			return
		}
		checkExact(t, centers, n, res, total, dmax)
		if n == 0 || n > approxGapMaxN {
			return
		}
		for _, a := range []struct {
			name  string
			solve func([]Center, int) (Result, error)
			gap   float64
		}{{"Bard", Bard, bardGap}, {"Schweitzer", Schweitzer, schweitzerGap}} {
			approx, err := a.solve(centers, n)
			if err != nil {
				t.Fatalf("%s(%+v, %d): %v", a.name, centers, n, err)
			}
			if gap := math.Abs(approx.X-res.X) / res.X; gap > a.gap*(1+1e-9) {
				t.Fatalf("%s(%+v, %d): X %v, exact %v: relative gap %.4g above %v", a.name, centers, n, approx.X, res.X, gap, a.gap)
			}
		}
	})
}

// checkExact checks an exact solution against Little's law at every
// center, the population constraint, utilizations below 1 at queueing
// centers, and the asymptotic throughput bounds.
func checkExact(t *testing.T, centers []Center, n int, res Result, total, dmax float64) {
	t.Helper()
	const tol = 1e-9
	sumQ := 0.0
	for k, c := range centers {
		if math.Abs(res.Q[k]-res.X*res.R[k]) > tol*res.Q[k] {
			t.Fatalf("center %d: Q %v, X·R %v", k, res.Q[k], res.X*res.R[k])
		}
		if math.Abs(res.U[k]-res.X*c.Demand) > tol*res.U[k] {
			t.Fatalf("center %d: U %v, X·D %v", k, res.U[k], res.X*c.Demand)
		}
		if c.Kind == Queueing && res.U[k] >= 1+tol {
			t.Fatalf("queueing center %d: utilization %v", k, res.U[k])
		}
		sumQ += res.Q[k]
	}
	if math.Abs(sumQ-float64(n)) > tol*float64(n) {
		t.Fatalf("ΣQ %v, population %d", sumQ, n)
	}
	bound := float64(n) / total
	if dmax > 0 {
		bound = math.Min(bound, 1/dmax)
	}
	if res.X > bound*(1+tol) {
		t.Fatalf("X %v above min(N/ΣD, 1/Dmax) = %v", res.X, bound)
	}
}
