package fit

import (
	"math"
	"testing"

	"repro/internal/core"
	obspkg "repro/internal/obs"
)

// windowFrom solves the model at truth and packages its observables the
// way a live-traffic window would see them (exact means, no noise).
func windowFrom(t testing.TB, truth core.ClientServerParams, withOverhead bool) WindowObs {
	t.Helper()
	res, err := core.ClientServer(truth)
	if err != nil {
		t.Fatalf("solving truth %+v: %v", truth, err)
	}
	w := WindowObs{
		P: truth.P, Ps: truth.Ps,
		X: res.X, Rs: res.Rs, So: truth.So, C2: truth.C2,
	}
	if withOverhead {
		w.Overhead = 2 * truth.St
	}
	return w
}

// TestClientServerWindowRecoversTruth: with exact observables and a
// measured overhead stream, the windowed refit inverts the model to the
// generating parameters.
func TestClientServerWindowRecoversTruth(t *testing.T) {
	truth := core.ClientServerParams{P: 24, Ps: 4, W: 1800, St: 120, So: 400, C2: 1}
	got, err := ClientServerWindow(windowFrom(t, truth, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %v, want %v within %v%%", name, got, want, 100*tol)
		}
	}
	within("W", got.W, truth.W, 0.01)
	within("St", got.St, truth.St, 0.01)
	within("So", got.So, truth.So, 1e-12)
	within("C2", got.C2, truth.C2, 1e-12)
	if got.Method != "leastsquares" && got.Loss > 1e-6 {
		t.Errorf("fit ended at loss %v via %q; want a near-zero optimum", got.Loss, got.Method)
	}
}

// TestClientServerWindowPinnedSt: with no overhead stream the refit
// pins St at 0 and loads the whole outside-time budget into W — the
// documented degeneracy along W + 2St.
func TestClientServerWindowPinnedSt(t *testing.T) {
	truth := core.ClientServerParams{P: 24, Ps: 4, W: 1800, St: 120, So: 400, C2: 0.5}
	got, err := ClientServerWindow(windowFrom(t, truth, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.St != 0 {
		t.Errorf("St = %v, want pinned 0 without an overhead stream", got.St)
	}
	wantW := truth.W + 2*truth.St
	if math.Abs(got.W-wantW) > 0.02*wantW {
		t.Errorf("W = %v, want W + 2St = %v within 2%%", got.W, wantW)
	}
}

// TestClientServerWindowValidation: broken windows are rejected with an
// error, not fit.
func TestClientServerWindowValidation(t *testing.T) {
	valid := WindowObs{P: 16, Ps: 4, X: 0.001, Rs: 600, So: 400, C2: 1, Overhead: 100}
	if _, err := ClientServerWindow(valid, nil); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*WindowObs)
	}{
		{"population", func(w *WindowObs) { w.P = 1 }},
		{"servers", func(w *WindowObs) { w.Ps = w.P }},
		{"zero throughput", func(w *WindowObs) { w.X = 0 }},
		{"NaN throughput", func(w *WindowObs) { w.X = math.NaN() }},
		{"zero service", func(w *WindowObs) { w.So = 0 }},
		{"negative C2", func(w *WindowObs) { w.C2 = -1 }},
		{"negative Rs", func(w *WindowObs) { w.Rs = -5 }},
		{"Inf overhead", func(w *WindowObs) { w.Overhead = math.Inf(1) }},
		{"saturated", func(w *WindowObs) { w.X = 20; w.So = 400 }},
	}
	for _, c := range cases {
		w := valid
		c.mutate(&w)
		if _, err := ClientServerWindow(w, nil); err == nil {
			t.Errorf("%s: window %+v accepted, want error", c.name, w)
		}
	}
}

// TestClientServerWindowObserved: the refit's loss evaluations report
// their solves to the observer, like every other fit entry point.
func TestClientServerWindowObserved(t *testing.T) {
	truth := core.ClientServerParams{P: 16, Ps: 2, W: 1000, St: 50, So: 300, C2: 1}
	var solves int
	obs := countingObserver{n: &solves}
	if _, err := ClientServerWindow(windowFrom(t, truth, true), obs); err != nil {
		t.Fatal(err)
	}
	if solves == 0 {
		t.Error("observer saw no solves during the window refit")
	}
}

type countingObserver struct{ n *int }

func (c countingObserver) BeginSolve(string) func(obspkg.SolveStats) {
	*c.n++
	return func(obspkg.SolveStats) {}
}
