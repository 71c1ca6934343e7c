package lockbench

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fit"
	"repro/internal/leakguard"
)

// benchThreads returns the thread counts the real-runtime tests sweep:
// 1..4, capped at GOMAXPROCS — running more contending goroutines than
// processors measures the Go scheduler's timeslicing, not the
// contention the model describes. On a single-core machine the sweep
// is the single point {1}.
func benchThreads() []int {
	maxT := runtime.GOMAXPROCS(0)
	if maxT > 4 {
		maxT = 4
	}
	var out []int
	for n := 1; n <= maxT; n++ {
		out = append(out, n)
	}
	return out
}

// measuredTolerance is the documented model-vs-measured contract: the
// fitted model must reproduce measured throughput within 15% mean
// relative error across the tested thread range. Under -race every
// atomic and mutex operation pays detector instrumentation, which
// inflates exactly the contended phases; the smoke job tolerates 40%.
func measuredTolerance() float64 {
	if RaceEnabled {
		return 0.40
	}
	return 0.15
}

// measuredEnv opts in to the model-vs-measured contracts. They fit the
// lock models to wall-clock throughput from a couple of thread counts,
// and on a shared or oversubscribed host that fit is at the mercy of
// co-tenants (RelRMSE near 20% against the 15% contract on a busy
// 2-vCPU host), so the default tier leaves them out. CI sets it in its
// contention-bench steps, with and without the race detector.
const measuredEnv = "LOPC_MEASURED"

// measuredContract reports whether measuredEnv=1 asks for the
// wall-clock contract. Without it a model-vs-measured test still runs
// its driver and its fit and checks what the host's timing cannot move,
// and only logs the fit's error.
func measuredContract(t *testing.T, relRMSE float64) bool {
	t.Helper()
	if os.Getenv(measuredEnv) == "1" {
		return true
	}
	t.Logf("fit RelRMSE %.1f%%; the %.0f%% contract runs with %s=1",
		100*relRMSE, 100*measuredTolerance(), measuredEnv)
	return false
}

func TestConfigValidate(t *testing.T) {
	cal := Calibration{SpinsPerNs: 1}
	bad := []Config{
		{Threads: 0, Work: time.Microsecond, Critical: time.Microsecond, OpsPerThread: 1},
		{Threads: 1, Work: -time.Microsecond, Critical: time.Microsecond, OpsPerThread: 1},
		{Threads: 1, Work: time.Microsecond, Critical: 0, OpsPerThread: 1},
		{Threads: 1, Work: time.Microsecond, Critical: time.Microsecond, OpsPerThread: 0},
	}
	for _, cfg := range bad {
		if _, err := RunMutex(cfg, cal); err == nil {
			t.Errorf("RunMutex(%+v) accepted invalid config", cfg)
		}
		if _, err := RunCAS(cfg, cal); err == nil {
			t.Errorf("RunCAS(%+v) accepted invalid config", cfg)
		}
		if _, err := RunTreiber(cfg, cal); err == nil {
			t.Errorf("RunTreiber(%+v) accepted invalid config", cfg)
		}
	}
}

// TestWorkPlanReproducible: work plans are a pure function of
// (seed, thread) under the rng substream scheme — the determinism
// contract for measurement replications.
func TestWorkPlanReproducible(t *testing.T) {
	a := WorkPlan(0xfeed, 3, 256, 1000)
	b := WorkPlan(0xfeed, 3, 256, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical (seed, thread) produced different plans")
	}
	c := WorkPlan(0xfeed, 4, 256, 1000)
	if reflect.DeepEqual(a, c) {
		t.Error("different threads share a work plan")
	}
	d := WorkPlan(0xbeef, 3, 256, 1000)
	if reflect.DeepEqual(a, d) {
		t.Error("different seeds share a work plan")
	}
	var sum float64
	for _, v := range a {
		sum += float64(v)
	}
	if mean := sum / float64(len(a)); mean < 500 || mean > 2000 {
		t.Errorf("plan mean %v far from configured 1000", mean)
	}
}

func TestCalibrate(t *testing.T) {
	cal := Calibrate()
	if !(cal.SpinsPerNs > 0) || math.IsInf(cal.SpinsPerNs, 0) {
		t.Fatalf("SpinsPerNs = %v", cal.SpinsPerNs)
	}
	if cal.SpinsFor(0) != 0 {
		t.Error("SpinsFor(0) != 0")
	}
	if cal.SpinsFor(time.Microsecond) == 0 {
		t.Error("SpinsFor(1µs) == 0; calibration rate implausibly low")
	}
}

// TestMutexModelVsMeasured is the committed model-vs-measured contract
// for the coarse-grained lock scenario: measure sync.Mutex throughput
// across the tested thread range, fit the lock model's (W, St) with
// the calibrated critical section held fixed (So known, C² = 0 — the
// spin is deterministic), and require the fit to reproduce the
// measurements within measuredTolerance (15% mean relative error; 40%
// under -race) when measuredEnv opts in. On a single-core machine the
// range degenerates to one point and the fit pins the effective cycle
// time; on multi-core CI the sweep also constrains the contention shape.
func TestMutexModelVsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime measurement")
	}
	cal := Calibrate()
	work, crit := 10*time.Microsecond, 2*time.Microsecond
	var obs []fit.LockObservation
	for _, n := range benchThreads() {
		m, err := RunMutex(Config{
			Threads: n, Work: work, Critical: crit,
			OpsPerThread: 4000, Seed: 0x10c,
		}, cal)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		if m.Attempts != 1 {
			t.Errorf("Threads=%d: mutex attempts = %v, want exactly 1", n, m.Attempts)
		}
		obs = append(obs, fit.LockObservation{Threads: n, X: m.X})
	}
	so := float64(crit.Nanoseconds())
	res, err := fit.Lock(obs, so, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !measuredContract(t, res.RelRMSE) {
		return
	}
	tol := measuredTolerance()
	if res.RelRMSE > tol {
		t.Errorf("fitted lock model misses measurements: RelRMSE %.1f%% > %.0f%% (obs %+v, fit %+v)",
			100*res.RelRMSE, 100*tol, obs, res)
	}
	// The fitted effective work may exceed the configured spin (it
	// absorbs scheduler and allocation overhead) but should stay within
	// an order of magnitude of it on any healthy machine.
	wNs := float64(work.Nanoseconds())
	if res.W < wNs/10 || res.W > wNs*10 {
		t.Errorf("fitted W = %.0fns implausible against configured %.0fns", res.W, wNs)
	}
}

// TestCASModelVsMeasured is the committed contract for the lock-free
// scenario: measure CAS-retry throughput, fit the conflict model's
// (W, St) with the calibrated round held fixed, and require agreement
// within measuredTolerance when measuredEnv opts in.
func TestCASModelVsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime measurement")
	}
	cal := Calibrate()
	work, round := 10*time.Microsecond, 2*time.Microsecond
	var obs []fit.LockObservation
	for _, n := range benchThreads() {
		m, err := RunCAS(Config{
			Threads: n, Work: work, Critical: round,
			OpsPerThread: 4000, Seed: 0x10c,
		}, cal)
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		if m.Attempts < 1 {
			t.Errorf("Threads=%d: attempts = %v < 1", n, m.Attempts)
		}
		obs = append(obs, fit.LockObservation{Threads: n, X: m.X})
	}
	so := float64(round.Nanoseconds())
	res, err := fit.LockFree(obs, so, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !measuredContract(t, res.RelRMSE) {
		return
	}
	if tol := measuredTolerance(); res.RelRMSE > tol {
		t.Errorf("fitted lock-free model misses measurements: RelRMSE %.1f%% > %.0f%% (obs %+v, fit %+v)",
			100*res.RelRMSE, 100*tol, obs, res)
	}
}

// TestTreiberSmoke: the Treiber stack driver runs, balances pushes and
// pops (every operation pays at least two CAS rounds), and reports a
// plausible throughput.
func TestTreiberSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime measurement")
	}
	cal := Calibrate()
	m, err := RunTreiber(Config{
		Threads: benchThreads()[len(benchThreads())-1],
		Work:    5 * time.Microsecond, Critical: time.Microsecond,
		OpsPerThread: 2000, Seed: 0x10c,
	}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if m.Attempts < 2 {
		t.Errorf("attempts = %v, want >= 2 (pop + push)", m.Attempts)
	}
	if !(m.X > 0) {
		t.Errorf("throughput %v", m.X)
	}
	if m.Elapsed <= 0 {
		t.Errorf("elapsed %v", m.Elapsed)
	}
}

// TestRunJoinsWorkers: RunMutex, RunCAS and RunTreiber have joined
// their goroutines by the time they return. The calibration is fixed,
// not measured, so the runs are short and nothing here depends on
// wall-clock timing.
func TestRunJoinsWorkers(t *testing.T) {
	cal := Calibration{SpinsPerNs: 0.01}
	cfg := Config{Threads: 4, Work: time.Microsecond, Critical: time.Microsecond, OpsPerThread: 50, Seed: 1}
	base := runtime.NumGoroutine()
	for _, drive := range []func(Config, Calibration) (Measurement, error){RunMutex, RunCAS, RunTreiber} {
		if _, err := drive(cfg, cal); err != nil {
			t.Fatal(err)
		}
		leakguard.Settle(t, base, "a lockbench run")
	}
}
