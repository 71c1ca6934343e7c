package core_test

// Per-stage benchmarks of the solve miss path backing BENCH_core.json:
// one scalar solve per solver, and UpperBoundBeta answered from its
// memo (hit) and by bisection (miss). The observed solve with a
// registry lives in internal/obs (BenchmarkScalarSolveInstrumentedRegistry)
// and the fit in internal/fit (BenchmarkFitAllToAll).

import (
	"testing"

	"repro/internal/core"
)

// The solver points: the Fig. 5-2 all-to-all regime, the Fig. 6-2
// work-pile split, and a mid-contention lock and lock-free point.
var (
	benchAllToAll     = core.Params{P: 64, W: 500, St: 40, So: 200, C2: 0}
	benchClientServer = core.ClientServerParams{P: 32, Ps: 8, W: 1500, St: 40, So: 131, C2: 0}
	benchLock         = core.LockParams{Threads: 8, W: 1000, St: 10, So: 100, C2: 1}
	benchLockFree     = core.LockFreeParams{Threads: 16, W: 500, St: 1, So: 20, C2: 1}
)

func BenchmarkSolveAllToAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllToAll(benchAllToAll); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveClientServer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ClientServer(benchClientServer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLock(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Lock(benchLock); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLockFree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.LockFree(benchLockFree); err != nil {
			b.Fatal(err)
		}
	}
}

// betaSink keeps the benchmarked UpperBoundBeta calls from being
// optimized away.
var betaSink float64

// BenchmarkUpperBoundBetaHit asks for one C² over and over.
func BenchmarkUpperBoundBetaHit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betaSink = core.UpperBoundBeta(0.5)
	}
}

// BenchmarkUpperBoundBetaMiss asks for a new C² every time, so every
// call bisects.
func BenchmarkUpperBoundBetaMiss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betaSink = core.UpperBoundBeta(1 + float64(i)*1e-9)
	}
}
