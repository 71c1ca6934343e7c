package fit

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/workload"
)

// modelObservations builds a noiseless sweep from the model itself.
func modelObservations(t *testing.T, p int, st, so, c2 float64, ws []float64) []Observation {
	t.Helper()
	obs := make([]Observation, 0, len(ws))
	for _, w := range ws {
		res, err := core.AllToAll(core.Params{P: p, W: w, St: st, So: so, C2: c2})
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{W: w, R: res.R, Rq: res.Rq})
	}
	return obs
}

// TestFitWarmStartConverges: the residual evaluations warm-start each
// solve from the previous evaluation's R, so the residuals must still
// be a smooth function of (St, So): if a solve returned wherever it
// started (any point within the solver's tolerance), the forward
// differences of a 1%-noise sweep would be noise, steps would stop
// lowering the loss, and the least-squares kernel would end far from
// the optimum or run to its cap. A smooth fit takes about 70 solves
// (each step solves the four W settings at x, at two Jacobian probes
// and at the trial point); 250 is a cap that a fit at Nelder–Mead's
// cost, about 490, would fail.
func TestFitWarmStartConverges(t *testing.T) {
	r := rng.New(3)
	u := func(a, b float64) float64 { return a + (b-a)*r.Float64() }
	for trial := 0; trial < 5; trial++ {
		st, so := u(20, 60), u(100, 300)
		var obs []Observation
		for _, base := range []float64{64, 256, 1024, 4096} {
			w := base * u(0.9, 1.1)
			res, err := core.AllToAll(core.Params{P: 32, W: w, St: st, So: so})
			if err != nil {
				t.Fatal(err)
			}
			obs = append(obs, Observation{W: w, R: res.R * (1 + 0.01*r.NormFloat64()), Rq: res.Rq * (1 + 0.01*r.NormFloat64())})
		}
		var count iterCounter
		res, err := AllToAllObserved(obs, 32, 0, &count)
		if err != nil {
			t.Fatal(err)
		}
		if count.solves > 250 || math.Abs(res.So-so) > 0.1*so {
			t.Errorf("St=%v So=%v: fit %+v after %d solves", st, so, res, count.solves)
		}
	}
}

// TestFitStOnBound: on the serve-cold draws where St is not identified
// (the sweep's best fit puts all the fixed overhead into So), the fit
// ends with St exactly on its bound, 0, at a loss no higher than the
// Nelder–Mead reference's, which drove St towards 1e-8 in log space.
func TestFitStOnBound(t *testing.T) {
	for _, seed := range []uint64{133, 148, 154} {
		obs := serveColdDraw(t, seed)
		res, err := AllToAll(obs, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, _ := refAllToAll(obs, 32, 0)
		if res.St > 0 || ref[0] > 1e-6 {
			t.Errorf("seed %d: St = %v (reference %v), want exactly 0 against a reference near it", seed, res.St, ref[0])
		}
		notWorse(t, "boundary draw", allToAllLoss(obs, 32, 0), []float64{res.St, res.So}, ref)
	}
}

// TestFitRecoversModelParameters: fitting noiseless model output must
// recover the generating parameters almost exactly.
func TestFitRecoversModelParameters(t *testing.T) {
	cases := []struct{ st, so float64 }{
		{40, 200}, {10, 500}, {120, 60},
	}
	ws := []float64{0, 32, 128, 512, 2048}
	for _, c := range cases {
		obs := modelObservations(t, 32, c.st, c.so, 0, ws)
		res, err := AllToAll(obs, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.So-c.so) / c.so; rel > 0.01 {
			t.Errorf("St=%g So=%g: fitted So=%.2f (rel %.2f%%)", c.st, c.so, res.So, rel*100)
		}
		if rel := math.Abs(res.St-c.st) / c.st; rel > 0.05 {
			t.Errorf("St=%g So=%g: fitted St=%.2f (rel %.2f%%)", c.st, c.so, res.St, rel*100)
		}
		if res.RelRMSE > 1e-3 {
			t.Errorf("noiseless fit left residual %.4f%%", res.RelRMSE*100)
		}
	}
}

// TestFitFromSimulation: calibrating against the simulator (the
// practitioner's situation: measurements from a machine whose St/So are
// "unknown") recovers the true parameters within a few percent — the
// model's own bias bound.
func TestFitFromSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const (
		trueSt = 40.0
		trueSo = 200.0
	)
	var obs []Observation
	for _, w := range []float64{0, 64, 256, 1024, 4096} {
		sim, err := workload.RunAllToAll(workload.AllToAllConfig{
			P:             32,
			Work:          dist.NewDeterministic(w),
			Latency:       dist.NewDeterministic(trueSt),
			Service:       dist.NewDeterministic(trueSo),
			WarmupCycles:  300,
			MeasureCycles: 1200,
			Seed:          9,
		})
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{W: w, R: sim.R.Mean(), Rq: sim.Rq.Mean()})
	}
	res, err := AllToAll(obs, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.So-trueSo) / trueSo; rel > 0.08 {
		t.Errorf("fitted So=%.1f, true %.1f (rel %.1f%%)", res.So, trueSo, rel*100)
	}
	if math.Abs(res.St-trueSt) > 0.5*trueSo {
		t.Errorf("fitted St=%.1f wildly off true %.1f", res.St, trueSt)
	}
	if res.RelRMSE > 0.03 {
		t.Errorf("fit residual %.1f%%", res.RelRMSE*100)
	}
	// The calibrated model should predict held-out work values well.
	held := 512.0
	sim, err := workload.RunAllToAll(workload.AllToAllConfig{
		P:             32,
		Work:          dist.NewDeterministic(held),
		Latency:       dist.NewDeterministic(trueSt),
		Service:       dist.NewDeterministic(trueSo),
		WarmupCycles:  300,
		MeasureCycles: 1200,
		Seed:          10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.AllToAll(core.Params{P: 32, W: held, St: res.St, So: res.So, C2: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pred.R-sim.R.Mean()) / sim.R.Mean(); rel > 0.03 {
		t.Errorf("held-out prediction off by %.1f%%", rel*100)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := AllToAll([]Observation{{W: 0, R: 1}, {W: 1, R: 2}}, 32, 0); err == nil {
		t.Error("two observations accepted")
	}
	if _, err := AllToAll([]Observation{{W: 0, R: -1}, {W: 1, R: 2}, {W: 2, R: 3}}, 32, 0); err == nil {
		t.Error("negative R accepted")
	}
	// P < 2 has no all-to-all machine: rejected up front, not after a
	// least-squares run whose every residual evaluation fails.
	three := []Observation{{W: 0, R: 900}, {W: 512, R: 1400}, {W: 2048, R: 2950}}
	for _, p := range []int{1, 0, -3} {
		if err := CheckAllToAll(three, p, 0); err == nil {
			t.Errorf("P = %d accepted by CheckAllToAll", p)
		}
		if _, err := AllToAll(three, p, 0); err == nil || !strings.Contains(err.Error(), "at least 2 processors") {
			t.Errorf("P = %d: AllToAll error %v, want the argument check's", p, err)
		}
	}
	if err := CheckAllToAll(three, 16, 0); err != nil {
		t.Errorf("valid arguments rejected: %v", err)
	}
}

// RoundTrip fits (St, So) from contention-free round-trip measurements
// alone (a single-client microbenchmark): R = W + 2St + 2So is a line
// in W with intercept 2St + 2So, so the two parameters cannot be
// separated without contention data; RoundTrip therefore returns the
// combined overhead per round trip. It documents, as a test, why the
// all-to-all sweep is the right calibration experiment.
func RoundTrip(obs []Observation) (overhead float64, err error) {
	if len(obs) < 1 {
		return 0, fmt.Errorf("fit: need at least 1 observation")
	}
	sum := 0.0
	for _, o := range obs {
		if o.R <= o.W {
			return 0, fmt.Errorf("fit: observation %+v has R <= W", o)
		}
		sum += o.R - o.W
	}
	return sum / float64(len(obs)), nil
}

func TestRoundTripOverhead(t *testing.T) {
	obs := []Observation{{W: 100, R: 580}, {W: 200, R: 680}, {W: 400, R: 880}}
	ov, err := RoundTrip(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ov-480) > 1e-9 {
		t.Errorf("overhead = %v, want 480", ov)
	}
	if _, err := RoundTrip(nil); err == nil {
		t.Error("empty observations accepted")
	}
	if _, err := RoundTrip([]Observation{{W: 100, R: 50}}); err == nil {
		t.Error("R <= W accepted")
	}
}
