package fit

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// serveColdDraw draws one calibration sweep the way perfbench's
// serve-cold fit requests do: P=32, a random St in [20, 60] and So in
// [100, 300], four W settings around 64, 256, 1024 and 4096, and 1%
// Gaussian noise on each R and Rq.
func serveColdDraw(t testing.TB, seed uint64) []Observation {
	r := rng.New(seed)
	u := func(a, b float64) float64 { return a + (b-a)*r.Float64() }
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
	return obs
}

// allToAllLoss is AllToAll's objective at (St, So), solved cold.
func allToAllLoss(obs []Observation, p int, c2 float64) func(x []float64) float64 {
	return func(x []float64) float64 {
		sum := 0.0
		for _, o := range obs {
			res, err := core.AllToAll(core.Params{P: p, W: o.W, St: x[0], So: x[1], C2: c2})
			if err != nil {
				return math.Inf(1)
			}
			sum += (res.R - o.R) * (res.R - o.R)
			if o.Rq > 0 {
				sum += (res.Rq - o.Rq) * (res.Rq - o.Rq)
			}
		}
		return sum
	}
}

// refAllToAll is the Nelder–Mead fit AllToAll replaced, from the same
// start. It returns the point, its loss and the model solves it took.
func refAllToAll(obs []Observation, p int, c2 float64) ([]float64, float64, int) {
	minOverhead := math.Inf(1)
	for _, o := range obs {
		minOverhead = math.Min(minOverhead, o.R-o.W)
	}
	loss, evals := allToAllLoss(obs, p, c2), 0
	x, f := nelderMead(func(x []float64) float64 { evals++; return loss(x) }, []float64{minOverhead / 4, minOverhead / 4})
	return x, f, evals * len(obs)
}

// lockLoss is lockFit's objective at (W, St), for the lock model or
// the lock-free one.
func lockLoss(obs []LockObservation, so, c2 float64, free bool) func(x []float64) float64 {
	return func(x []float64) float64 {
		sum := 0.0
		for _, o := range obs {
			var xm float64
			var err error
			if free {
				var res core.LockFreeResult
				res, err = core.LockFree(core.LockFreeParams{Threads: o.Threads, W: x[0], St: x[1], So: so, C2: c2})
				xm = res.X
			} else {
				var res core.LockResult
				res, err = core.Lock(core.LockParams{Threads: o.Threads, W: x[0], St: x[1], So: so, C2: c2})
				xm = res.X
			}
			if err != nil {
				return math.Inf(1)
			}
			sum += (xm - o.X) * (xm - o.X) / (o.X * o.X)
		}
		return sum
	}
}

// windowLoss is ClientServerWindow's objective at (W, St).
func windowLoss(w WindowObs) func(x []float64) float64 {
	rs := math.Max(w.Rs, w.So)
	return func(x []float64) float64 {
		st := 0.0
		if len(x) > 1 {
			st = x[1]
		}
		res, err := core.ClientServer(core.ClientServerParams{P: w.P, Ps: w.Ps, W: x[0], St: st, So: w.So, C2: w.C2})
		if err != nil {
			return math.Inf(1)
		}
		dx, dr := (res.X-w.X)/w.X, (res.Rs-rs)/rs
		sum := dx*dx + dr*dr
		if w.Overhead > 0 {
			do := (2*st - w.Overhead) / w.Overhead
			sum += do * do
		}
		return sum
	}
}

// notWorse fails t when the least-squares point's loss exceeds the
// Nelder–Mead reference's by more than 1e-9 relative.
func notWorse(t *testing.T, what string, loss func([]float64) float64, got, ref []float64) {
	t.Helper()
	lg, lr := loss(got), loss(ref)
	if !(lg <= lr*(1+1e-9)) {
		t.Errorf("%s: loss %.12g at %v, reference %.12g at %v", what, lg, got, lr, ref)
	}
}

// TestFitNotWorseThanNelderMead is the differential test of every fit
// entry point against the Nelder–Mead reference: on 200 serve-cold fit
// draws, the lock and lock-free sweeps of lock_test.go and the windows
// of window_test.go, the least-squares loss is never higher.
func TestFitNotWorseThanNelderMead(t *testing.T) {
	solves, refSolves, maxDSo, maxDSt := 0, 0, 0.0, 0.0
	for seed := uint64(1); seed <= 200; seed++ {
		obs := serveColdDraw(t, seed)
		var count iterCounter
		res, err := AllToAllObserved(obs, 32, 0, &count)
		if err != nil {
			t.Fatal(err)
		}
		solves += count.solves
		ref, _, n := refAllToAll(obs, 32, 0)
		refSolves += n
		notWorse(t, "serve-cold draw", allToAllLoss(obs, 32, 0), []float64{res.St, res.So}, ref)
		maxDSo = math.Max(maxDSo, math.Abs(res.So-ref[1])/ref[1])
		if ref[0] >= 1 {
			maxDSt = math.Max(maxDSt, math.Abs(res.St-ref[0])/ref[0])
		}
	}
	t.Logf("serve-cold draws: %.1f solves per fit (reference %.1f); max relative difference So %.2g, St (where the reference has St ≥ 1) %.2g",
		float64(solves)/200, float64(refSolves)/200, maxDSo, maxDSt)

	type lockCase struct {
		name   string
		obs    []LockObservation
		so, c2 float64
		free   bool
	}
	lockSweeps := []lockCase{
		{"lock", lockModelSweep(t, 900, 25, 100, 1, false), 100, 1, false},
		{"lock-free", lockModelSweep(t, 500, 8, 60, 1, true), 60, 1, true},
	}
	if !testing.Short() {
		lockSweeps = append(lockSweeps, lockCase{"lock simulation", lockSimSweep(t), 100, 1, false})
	}
	for _, c := range lockSweeps {
		fitFn := Lock
		if c.free {
			fitFn = LockFree
		}
		got, err := fitFn(c.obs, c.so, c.c2)
		if err != nil {
			t.Fatal(err)
		}
		guessW := c.so
		for _, o := range c.obs {
			guessW = math.Max(guessW, float64(o.Threads)/o.X-c.so)
		}
		loss := lockLoss(c.obs, c.so, c.c2, c.free)
		ref, _ := nelderMead(loss, []float64{guessW, c.so / 4})
		notWorse(t, c.name, loss, []float64{got.W, got.St}, ref)
	}

	windows := []WindowObs{
		windowFrom(t, core.ClientServerParams{P: 24, Ps: 4, W: 1800, St: 120, So: 400, C2: 1}, true),
		windowFrom(t, core.ClientServerParams{P: 24, Ps: 4, W: 1800, St: 120, So: 400, C2: 0.5}, false),
		windowFrom(t, core.ClientServerParams{P: 16, Ps: 2, W: 1000, St: 50, So: 300, C2: 1}, true),
		{P: 16, Ps: 4, X: 0.001, Rs: 600, So: 400, C2: 1, Overhead: 100},
	}
	for _, w := range windows {
		got, err := ClientServerWindow(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		pc, rs := float64(w.P-w.Ps), math.Max(w.Rs, w.So)
		st0 := w.Overhead / 2
		w0 := pc/w.X - 2*st0 - rs - w.So
		if !(w0 > 0) {
			w0 = w.So / 100
		}
		x0, x := []float64{w0, st0}, []float64{got.W, got.St}
		if w.Overhead <= 0 {
			x0, x = x0[:1], x[:1]
		}
		ref, _ := nelderMead(windowLoss(w), x0)
		notWorse(t, "window", windowLoss(w), x, ref)
	}
}
