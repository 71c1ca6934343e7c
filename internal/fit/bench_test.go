package fit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// iterCounter is a SolveObserver that counts solves and the map
// evaluations they took.
type iterCounter struct{ solves, iters int }

func (c *iterCounter) BeginSolve(string) func(obs.SolveStats) {
	return func(s obs.SolveStats) {
		c.solves++
		c.iters += s.Iters
	}
}

// BenchmarkFitAllToAll fits (St, So) to a five-point noiseless sweep:
// one least-squares run of tens of all-to-all solves at one C². It
// reports the solves per fit and the mean map evaluations per solve.
func BenchmarkFitAllToAll(b *testing.B) {
	var sweep []Observation
	for _, w := range []float64{0, 32, 128, 512, 2048} {
		res, err := core.AllToAll(core.Params{P: 32, W: w, St: 40, So: 200})
		if err != nil {
			b.Fatal(err)
		}
		sweep = append(sweep, Observation{W: w, R: res.R, Rq: res.Rq})
	}
	var count iterCounter
	if _, err := AllToAllObserved(sweep, 32, 0, &count); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllToAll(sweep, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count.solves), "solves/op")
	b.ReportMetric(float64(count.iters)/float64(count.solves), "iters/solve")
}

// benchmarkLockFit fits (W, St) of the lock model (free: the lock-free
// one) to a five-point noiseless thread sweep, reporting the solves per
// fit.
func benchmarkLockFit(b *testing.B, free bool) {
	w, st, so, c2 := 900.0, 25.0, 100.0, 1.0
	fitFn := Lock
	if free {
		w, st, so = 500, 8, 60
		fitFn = LockFree
	}
	sweep := lockModelSweep(b, w, st, so, c2, free)
	var count iterCounter
	model := func(n int, w, st float64, o obs.SolveObserver) (float64, error) {
		if free {
			res, err := core.LockFreeObserved(core.LockFreeParams{Threads: n, W: w, St: st, So: so, C2: c2}, o)
			return res.X, err
		}
		res, err := core.LockObserved(core.LockParams{Threads: n, W: w, St: st, So: so, C2: c2}, o)
		return res.X, err
	}
	if _, err := lockFit(sweep, so, c2, &count, model); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitFn(sweep, so, c2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count.solves), "solves/op")
}

func BenchmarkFitLock(b *testing.B)     { benchmarkLockFit(b, false) }
func BenchmarkFitLockFree(b *testing.B) { benchmarkLockFit(b, true) }

// BenchmarkFitWindow refits (W, St) to one live-traffic window with a
// measured overhead, the calibrator's per-window work, reporting the
// solves per fit. The window is not exactly model output, so the
// closed-form start is not already the optimum.
func BenchmarkFitWindow(b *testing.B) {
	w := WindowObs{P: 16, Ps: 4, X: 0.001, Rs: 600, So: 400, C2: 1, Overhead: 100}
	var count iterCounter
	if _, err := ClientServerWindow(w, &count); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClientServerWindow(w, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count.solves), "solves/op")
}
