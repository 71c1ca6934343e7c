package fit

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/workload"
)

// lockSimSweep runs the simulated lock workload across a thread sweep
// at W=800, St=20, So=100 (C²=1) and returns the throughput
// observations.
func lockSimSweep(t *testing.T) []LockObservation {
	t.Helper()
	var obs []LockObservation
	for _, n := range []int{1, 2, 4, 8, 16} {
		sim, err := workload.RunLock(workload.LockConfig{
			Threads:    n,
			Work:       dist.NewExponential(800),
			Handoff:    dist.NewDeterministic(20),
			Critical:   dist.NewExponential(100),
			WarmupTime: 30_000, MeasureTime: 500_000,
			Seed: 11,
		})
		if err != nil {
			t.Fatalf("Threads=%d: %v", n, err)
		}
		obs = append(obs, LockObservation{Threads: n, X: sim.X})
	}
	return obs
}

// lockModelSweep solves the lock model (free: the lock-free one) across
// the thread sweep 1–16 and returns its throughputs as observations.
func lockModelSweep(t testing.TB, w, st, so, c2 float64, free bool) []LockObservation {
	t.Helper()
	var obs []LockObservation
	for _, n := range []int{1, 2, 4, 8, 16} {
		var x float64
		var err error
		if free {
			var res core.LockFreeResult
			res, err = core.LockFree(core.LockFreeParams{Threads: n, W: w, St: st, So: so, C2: c2})
			x = res.X
		} else {
			var res core.LockResult
			res, err = core.Lock(core.LockParams{Threads: n, W: w, St: st, So: so, C2: c2})
			x = res.X
		}
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, LockObservation{Threads: n, X: x})
	}
	return obs
}

// TestLockFitRecoversParameters: generate a synthetic sweep from known
// lock-model parameters and check the fit recovers them (and
// reproduces the curve essentially exactly).
func TestLockFitRecoversParameters(t *testing.T) {
	trueW, trueSt, so, c2 := 900.0, 25.0, 100.0, 1.0
	fit, err := Lock(lockModelSweep(t, trueW, trueSt, so, c2, false), so, c2)
	if err != nil {
		t.Fatal(err)
	}
	if fit.RelRMSE > 1e-4 {
		t.Errorf("self-fit RelRMSE = %v", fit.RelRMSE)
	}
	// W and 2St trade off weakly at low utilization; the combined cycle
	// overhead must come back sharply even when the split is softer.
	if got, want := fit.W+2*fit.St, trueW+2*trueSt; math.Abs(got-want)/want > 0.01 {
		t.Errorf("fitted W+2St = %v, want %v", got, want)
	}
}

// TestLockFreeFitRecoversParameters: the conflict-model analogue.
func TestLockFreeFitRecoversParameters(t *testing.T) {
	trueW, trueSt, so, c2 := 500.0, 8.0, 60.0, 1.0
	fit, err := LockFree(lockModelSweep(t, trueW, trueSt, so, c2, true), so, c2)
	if err != nil {
		t.Fatal(err)
	}
	if fit.RelRMSE > 1e-4 {
		t.Errorf("self-fit RelRMSE = %v", fit.RelRMSE)
	}
	if got, want := fit.W+fit.St, trueW+trueSt; math.Abs(got-want)/want > 0.01 {
		t.Errorf("fitted W+St = %v, want %v", got, want)
	}
}

// TestLockFitFromSimulation: fit the lock model to the simulated
// machine's lock workload — the same substrate pairing the lockbench
// tests use with real measurements — and require agreement within the
// documented 15% contract.
func TestLockFitFromSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	obs := lockSimSweep(t)
	fit, err := Lock(obs, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.RelRMSE > 0.15 {
		t.Errorf("RelRMSE = %.1f%% > 15%%", 100*fit.RelRMSE)
	}
	// The simulator ran W=800, St=20: the fitted effective values must
	// land in the neighborhood.
	if fit.W < 600 || fit.W > 1000 {
		t.Errorf("fitted W = %v far from configured 800", fit.W)
	}
}

func TestLockFitErrors(t *testing.T) {
	good := []LockObservation{{Threads: 1, X: 0.001}, {Threads: 4, X: 0.003}}
	if _, err := Lock(nil, 100, 1); err == nil {
		t.Error("empty observations accepted")
	}
	if _, err := Lock(good, 0, 1); err == nil {
		t.Error("So = 0 accepted")
	}
	if _, err := Lock(good, 100, -1); err == nil {
		t.Error("negative C² accepted")
	}
	if _, err := Lock(good, math.NaN(), 1); err == nil {
		t.Error("NaN So accepted")
	}
	if _, err := Lock([]LockObservation{{Threads: 0, X: 1}}, 100, 1); err == nil {
		t.Error("Threads = 0 observation accepted")
	}
	if _, err := LockFree([]LockObservation{{Threads: 1, X: -1}}, 100, 1); err == nil {
		t.Error("negative X observation accepted")
	}
}
