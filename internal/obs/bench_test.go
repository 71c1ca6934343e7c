package obs_test

// Instrumentation-overhead benchmarks backing BENCH_obs.json: the same
// solve with the observer seam off (nil observer — one pointer nil
// check per solve) and on (a live ConvRecorder capturing iteration
// count, residual, and wall time into its ring).
//
// Two pairs, deliberately at opposite ends of solve cost:
//
//   - Solve*: the general Appendix-A model at P = 64 — O(P²) work per
//     fixed-point iteration, ~600µs per solve. This is the
//     representative case (it subsumes the all-to-all and
//     client-server models) and the one the ≤ 5% acceptance bound in
//     BENCH_obs.json is recorded against.
//   - ScalarSolve*: the homogeneous all-to-all solver — a scalar fixed
//     point, ~0.9µs per solve. This is the worst case by construction:
//     the observer's fixed per-solve cost (two wall-clock reads, two
//     completion closures and a ring append, ~350ns) lands on the
//     cheapest solve in the repo, so the ratio is dominated by that
//     fixed cost, not by anything per-iteration. The Registry variant
//     also mirrors into a metrics registry, as the HTTP service does.
//
// Both pairs share the guard property that matters: the seam charges
// nothing per iteration, so a regression that adds allocation, locking,
// or clock reads inside the iteration loop shows up multiplied by the
// iteration count, far above either threshold.

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/allocguard"
	"repro/internal/core"
	"repro/internal/obs"
)

// benchScalarParams is a mid-contention all-to-all point (the Fig. 3
// regime, ~20 fixed-point iterations).
var benchScalarParams = core.Params{P: 64, W: 500, St: 40, So: 200, C2: 0}

// benchGeneralParams is the same machine expressed in the general
// Appendix-A model: 64 nodes, homogeneous work and visits.
var benchGeneralParams = core.GeneralParams{
	P:  64,
	W:  uniformWork(64, 500),
	V:  core.HomogeneousVisits(64),
	St: 40,
	So: []float64{200},
}

func uniformWork(p int, w float64) []float64 {
	out := make([]float64, p)
	for i := range out {
		out[i] = w
	}
	return out
}

func BenchmarkSolveUninstrumented(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.GeneralObserved(benchGeneralParams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveInstrumented(b *testing.B) {
	rec := obs.NewConvRecorder(obs.DefaultConvCapacity, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.GeneralObserved(benchGeneralParams, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarSolveUninstrumented(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllToAllObserved(benchScalarParams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarSolveInstrumented(b *testing.B) {
	rec := obs.NewConvRecorder(obs.DefaultConvCapacity, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllToAllObserved(benchScalarParams, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarSolveInstrumentedRegistry(b *testing.B) {
	rec := obs.NewConvRecorder(obs.DefaultConvCapacity, nil, obs.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllToAllObserved(benchScalarParams, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// observedSolveAllocsMax caps the allocations of one all-to-all solve
// observed by a registry-backed ConvRecorder: the recorder's completion
// closure, which the solver calls as it is. Resolving the registry
// instruments on every solve cost 17, and a solver-side wrapper around
// the closure one more.
const observedSolveAllocsMax = 1

// TestObservedSolveAllocs guards the observed solve's allocation count:
// after a solver's first solve, mirroring into the registry goes
// through cached instrument handles and allocates nothing.
func TestObservedSolveAllocs(t *testing.T) {
	if allocguard.Race {
		t.Skip("the race detector changes allocation counts")
	}
	rec := obs.NewConvRecorder(obs.DefaultConvCapacity, nil, obs.NewRegistry())
	solve := func() {
		if _, err := core.AllToAllObserved(benchScalarParams, rec); err != nil {
			t.Fatal(err)
		}
	}
	solve() // resolve the instruments and memoize β
	if got := testing.AllocsPerRun(200, solve); got > observedSolveAllocsMax {
		t.Errorf("observed solve allocates %v times, want at most %d", got, observedSolveAllocsMax)
	}
}

// TestObserverOverheadGuard is the CI benchmark guard: it measures both
// pairs with testing.Benchmark (best of 3, which discards the runs a
// concurrently-executing test package stole cycles from) and fails if
// observation costs more than the per-pair limit. Limits are far looser
// than the numbers recorded in BENCH_obs.json — the guard shares the
// machine with the rest of `go test ./...` — because looseness costs
// nothing here: the regression this exists to catch is per-iteration
// allocation, locking, or clock reads inside the solver hot loop, which
// multiplies by the iteration count (~20 at these parameters) and lands
// at +150% or more on the scalar pair. The scalar pair is the sensitive
// tripwire (fixed observer cost against a ~0.9µs solve); the general
// pair documents that the representative solve is unaffected (it reads
// within a few percent on a quiet host, but a shared host has moved it
// by ±25% run to run, on both sides of the pair).
//
//   - general pair: 25%
//   - scalar pair: 75% (measured ≈ 38–42% on a 2-vCPU host: ~350ns of
//     fixed observer cost over a solve that the β memo cut from ~3.2µs
//     to ~0.9µs)
//
// The ratios are wall-clock measurements at the mercy of whatever else
// shares the host, so the limits are enforced only with LOPC_MEASURED=1,
// which CI's "Observer overhead guard" step sets. Without it the test
// checks what timing cannot move: an observed solve returns exactly the
// uninstrumented result and records one trace.
//
// LOPC_OBS_OVERHEAD_MAX overrides the general-pair limit (fraction) for
// strict quiet-machine runs.
func TestObserverOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if os.Getenv("LOPC_MEASURED") != "1" {
		checkObservedSolvesUnchanged(t)
		t.Log("the 25% general / 75% scalar overhead limits run with LOPC_MEASURED=1")
		return
	}
	generalLimit := 0.25
	if s := os.Getenv("LOPC_OBS_OVERHEAD_MAX"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("LOPC_OBS_OVERHEAD_MAX=%q: %v", s, err)
		}
		generalLimit = v
	}
	best := func(b func(*testing.B)) int64 {
		min := int64(0)
		for i := 0; i < 3; i++ {
			if ns := testing.Benchmark(b).NsPerOp(); min == 0 || (ns > 0 && ns < min) {
				min = ns
			}
		}
		return min
	}
	check := func(name string, baseFn, instFn func(*testing.B), limit float64) {
		base, inst := best(baseFn), best(instFn)
		if base <= 0 {
			t.Fatalf("%s: degenerate baseline %dns/op", name, base)
		}
		overhead := float64(inst)/float64(base) - 1
		t.Logf("%s: uninstrumented %dns/op, instrumented %dns/op, overhead %+.2f%% (limit %.0f%%)",
			name, base, inst, overhead*100, limit*100)
		if overhead > limit {
			t.Errorf("%s: observer overhead %.2f%% exceeds %.0f%%", name, overhead*100, limit*100)
		}
	}
	check("general", BenchmarkSolveUninstrumented, BenchmarkSolveInstrumented, generalLimit)
	check("scalar", BenchmarkScalarSolveUninstrumented, BenchmarkScalarSolveInstrumented, 0.75)
}

// checkObservedSolvesUnchanged: observing a solve does not change its
// result, and the recorder sees each solve once.
func checkObservedSolvesUnchanged(t *testing.T) {
	rec := obs.NewConvRecorder(obs.DefaultConvCapacity, nil, nil)
	g0, err0 := core.GeneralObserved(benchGeneralParams, nil)
	g1, err1 := core.GeneralObserved(benchGeneralParams, rec)
	if err0 != nil || err1 != nil || !reflect.DeepEqual(g0, g1) {
		t.Errorf("general solve: observed %+v (%v), unobserved %+v (%v)", g1, err1, g0, err0)
	}
	a0, err0 := core.AllToAllObserved(benchScalarParams, nil)
	a1, err1 := core.AllToAllObserved(benchScalarParams, rec)
	if err0 != nil || err1 != nil || a0 != a1 {
		t.Errorf("scalar solve: observed %+v (%v), unobserved %+v (%v)", a1, err1, a0, err0)
	}
	if got := rec.Total(); got != 2 {
		t.Errorf("recorder saw %d solves, want 2", got)
	}
}
