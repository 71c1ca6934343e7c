package core_test

// Per-stage benchmarks of the solve miss path backing BENCH_core.json:
// one solve per solver, each reporting the map evaluations it took as
// iters/op, and UpperBoundBeta answered from its memo (hit) and by
// bisection (miss). The observed solve with a
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

// benchGeneral is the Appendix A model with the homogeneous visit
// matrix at the Fig. 5-2 point.
func benchGeneral(p int) core.GeneralParams {
	w := make([]float64, p)
	for i := range w {
		w[i] = 500
	}
	return core.GeneralParams{P: p, W: w, V: core.HomogeneousVisits(p), St: 40, So: []float64{200}}
}

func BenchmarkSolveAllToAll(b *testing.B) {
	b.ReportAllocs()
	var res core.AllToAllResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.AllToAll(benchAllToAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func BenchmarkSolveClientServer(b *testing.B) {
	b.ReportAllocs()
	var res core.ClientServerResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.ClientServer(benchClientServer); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func BenchmarkSolveLock(b *testing.B) {
	b.ReportAllocs()
	var res core.LockResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.Lock(benchLock); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func BenchmarkSolveLockFree(b *testing.B) {
	b.ReportAllocs()
	var res core.LockFreeResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.LockFree(benchLockFree); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func benchmarkSolveGeneral(b *testing.B, p int) {
	params := benchGeneral(p)
	b.ReportAllocs()
	var res core.GeneralResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.General(params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func BenchmarkSolveGeneralP8(b *testing.B)  { benchmarkSolveGeneral(b, 8) }
func BenchmarkSolveGeneralP64(b *testing.B) { benchmarkSolveGeneral(b, 64) }

// BenchmarkSolveMultithreaded solves the Fig. 5-2 point with four
// threads per node; every map evaluation runs exact MVA over the
// threads.
func BenchmarkSolveMultithreaded(b *testing.B) {
	b.ReportAllocs()
	var res core.MultithreadedResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = core.Multithreaded(benchAllToAll, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
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
