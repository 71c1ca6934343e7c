package mva

import (
	"encoding/binary"
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

// The largest per-class relative throughput gap of the multiclass
// approximations to MultiExact at total populations up to
// approxGapMaxN. Bard's is the single-class 0.5 again: a class of one
// customer at one queueing center. Schweitzer's is the largest gap
// measured over 1.5 million random networks of one to three classes
// (up to eight customers each) and one to four centers, demands
// log-uniform over [1e-3, 1e3] or zero, rounded up; a class of one
// customer sharing a queueing center with two larger classes comes
// closest.
const (
	multiBardGap       = 0.5
	multiSchweitzerGap = 0.35
)

// fuzzMultiMaxN bounds each class's population, so MultiExact's state
// space stays below 65³.
const fuzzMultiMaxN = 64

// multiSeed packs a FuzzMulti input: demands fill Demand row by row.
func multiSeed(d ...float64) []byte {
	b := make([]byte, 8*len(d))
	for i, v := range d {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzMulti checks MultiExact, MultiBard and MultiSchweitzer on
// networks of one to three classes and one to four centers. shape's
// bits 0–1 give the number of classes (1 + value mod 3), bits 2–3 the
// number of centers, and bit 4+k makes center k a delay center;
// demands holds the class-major demand matrix as little-endian
// float64s, missing entries zero. Each solver must reject an invalid
// network with ErrInvalid, and otherwise return an error or a solution
// where every class's X·ΣR equals its population, QTotal sums the
// per-class queues and every queueing center's utilization lies in
// [0, 1]. At total populations up to approxGapMaxN the approximations
// must stay within their measured gaps of MultiExact.
func FuzzMulti(f *testing.F) {
	f.Add(uint8(0x05), 3, 2, 0, multiSeed(1, 2, 3, 1))                           // two classes, two queueing centers
	f.Add(uint8(0x1e), 8, 7, 1, multiSeed(600, 20, 500, 45, 1, 18, 1, 1, 18))    // Schweitzer's worst kind: a lone customer among two crowds
	f.Add(uint8(0x00), 1, 0, 0, multiSeed(32.85))                                // Bard's worst: one customer, one center
	f.Add(uint8(0x1d), 10, 10, 0, multiSeed(1051, 44, 44, 44, 2451, 44, 44, 44)) // a two-class work-pile, three servers
	f.Add(uint8(0x3f), 64, 64, 64, multiSeed(1, 2, 3, 4, 4, 3, 2, 1, 1, 1, 1, 1))
	f.Add(uint8(0x01), 4, 4, 0, multiSeed(1, 0))        // a class with no demand
	f.Add(uint8(0x01), -1, 4, 0, multiSeed(1, 1))       // negative population
	f.Add(uint8(0x00), 3, 0, 0, multiSeed(math.NaN()))  // NaN demand
	f.Add(uint8(0x00), 3, 0, 0, multiSeed(math.Inf(1))) // infinite demand
	f.Add(uint8(0x00), 3, 0, 0, multiSeed(-1))          // negative demand
	f.Add(uint8(0x00), 3, 0, 0, multiSeed(5e-324))      // N/ΣD overflows
	f.Add(uint8(0x02), 0, 0, 0, multiSeed(1, 1, 1))     // nobody at all
	f.Fuzz(func(t *testing.T, shape uint8, n0, n1, n2 int, demands []byte) {
		nc, nk := 1+int(shape&3)%3, 1+int(shape>>2&3)
		p := MultiParams{Centers: make([]Center, nk), Demand: make([][]float64, nc), N: []int{n0, n1, n2}[:nc]}
		valid, inRange := true, true
		for k := range p.Centers {
			if shape&(1<<(4+k)) != 0 {
				p.Centers[k].Kind = Delay
			}
		}
		for c := range p.Demand {
			if p.N[c] > fuzzMultiMaxN {
				t.Skip("population beyond the fuzzed range")
			}
			p.Demand[c] = make([]float64, nk)
			total := 0.0
			for k := range p.Demand[c] {
				if i := 8 * (c*nk + k); i+8 <= len(demands) {
					p.Demand[c][k] = math.Float64frombits(binary.LittleEndian.Uint64(demands[i:]))
				}
				d := p.Demand[c][k]
				valid = valid && validDemand(d)
				inRange = inRange && (d == 0 || d >= 1/fuzzDemandRange && d <= fuzzDemandRange)
				total += d
			}
			valid = valid && p.N[c] >= 0 && !(p.N[c] > 0 && math.IsInf(float64(p.N[c])/total, 1))
		}
		solvers := []struct {
			name  string
			solve func(MultiParams) (MultiResult, error)
			gap   float64
		}{{"MultiExact", MultiExact, 0}, {"MultiBard", MultiBard, multiBardGap}, {"MultiSchweitzer", MultiSchweitzer, multiSchweitzerGap}}
		if !valid {
			for _, s := range solvers {
				if _, err := s.solve(p); !errors.Is(err, ErrInvalid) {
					t.Fatalf("%s(%+v): error %v, want ErrInvalid", s.name, p, err)
				}
			}
			return
		}
		exact, err := MultiExact(p)
		if err != nil {
			t.Fatalf("MultiExact(%+v): %v", p, err)
		}
		total := 0
		for _, n := range p.N {
			total += n
		}
		for _, s := range solvers {
			// Outside the demand range the solvers may overflow, and so
			// may the checks: an error is then the right answer, and a
			// result is not checked.
			res, err := s.solve(p)
			if !inRange {
				continue
			}
			if err != nil {
				t.Fatalf("%s(%+v): %v", s.name, p, err)
			}
			checkMulti(t, s.name, p, res)
			if s.gap == 0 || total > approxGapMaxN {
				continue
			}
			for c, x := range res.X {
				if ex := exact.X[c]; ex > 0 && math.Abs(x-ex)/ex > s.gap*(1+1e-9) {
					t.Fatalf("%s(%+v): class %d X %v, exact %v: relative gap %.4g above %v", s.name, p, c, x, ex, math.Abs(x-ex)/ex, s.gap)
				}
			}
		}
	})
}

// checkMulti checks a multiclass solution against each class's
// population (X·ΣR = N), the total queue at each center, and
// utilizations in [0, 1] at queueing centers: 1 is reached exactly
// when one queueing center holds all the demand, and is never idle.
func checkMulti(t *testing.T, name string, p MultiParams, res MultiResult) {
	t.Helper()
	const tol = 1e-9
	for c, n := range p.N {
		sumR := 0.0
		for _, r := range res.R[c] {
			sumR += r
		}
		if got := res.X[c] * sumR; math.Abs(got-float64(n)) > tol*float64(n) || (n == 0 && res.X[c] != 0) {
			t.Fatalf("%s(%+v): class %d: X·ΣR = %v·%v = %v, population %d", name, p, c, res.X[c], sumR, got, n)
		}
	}
	for k, center := range p.Centers {
		sumQ, u := 0.0, 0.0
		for c := range p.N {
			sumQ += res.Q[c][k]
			u += res.X[c] * p.Demand[c][k]
		}
		if math.Abs(res.QTotal[k]-sumQ) > tol*sumQ {
			t.Fatalf("%s(%+v): center %d: QTotal %v, ΣQ %v", name, p, k, res.QTotal[k], sumQ)
		}
		if center.Kind == Queueing && !(u >= 0 && u <= 1+tol) {
			t.Fatalf("%s(%+v): queueing center %d: utilization %v", name, p, k, u)
		}
	}
}
