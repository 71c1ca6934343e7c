package fit

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/numeric"
	obspkg "repro/internal/obs"
)

// WindowObs summarizes one window of live traffic against the
// client-server work-pile model of Chapter 6: the serving process is
// read as P closed clients (concurrent callers plus queued requests)
// cycling through think time W, two trips of latency St, and a visit to
// one of Ps servers (solver workers) costing So per request. All times
// share one unit (the serve layer uses microseconds); X is requests per
// that unit.
type WindowObs struct {
	// P is the modeled closed population; Ps the server (worker) count.
	P, Ps int
	// X is the observed throughput: completed requests per time unit
	// over the window.
	X float64
	// Rs is the observed mean server response per request: queue wait
	// plus service.
	Rs float64
	// So is the observed mean service time, and C2 the squared
	// coefficient of variation of the service samples.
	So, C2 float64
	// Overhead is the observed mean per-request time outside queueing
	// and service (dispatch, decode, marshal) — the live counterpart of
	// the model's two network trips, so Overhead ≈ 2·St. Zero means
	// unmeasured, which pins St at 0: means of X and Rs alone cannot
	// separate St from W (they trade off along W + 2St, the same
	// degeneracy a contention-free sweep has, R = W + 2St + 2So).
	Overhead float64
}

// Validate reports whether the window is usable for a refit.
func (w WindowObs) Validate() error {
	switch {
	case w.P < 2 || w.Ps < 1 || w.Ps >= w.P:
		return fmt.Errorf("fit: window needs 2 <= P and 1 <= Ps < P, got P=%d Ps=%d", w.P, w.Ps)
	case !(w.X > 0) || math.IsInf(w.X, 0):
		return fmt.Errorf("fit: window throughput X = %v must be positive and finite", w.X)
	case !(w.So > 0) || math.IsInf(w.So, 0):
		return fmt.Errorf("fit: window mean service So = %v must be positive and finite", w.So)
	case math.IsNaN(w.C2) || math.IsInf(w.C2, 0) || w.C2 < 0:
		return fmt.Errorf("fit: window service variability C² = %v", w.C2)
	case math.IsNaN(w.Rs) || math.IsInf(w.Rs, 0) || w.Rs < 0:
		return fmt.Errorf("fit: window server response Rs = %v", w.Rs)
	case math.IsNaN(w.Overhead) || math.IsInf(w.Overhead, 0) || w.Overhead < 0:
		return fmt.Errorf("fit: window overhead %v", w.Overhead)
	case w.X*w.So/float64(w.Ps) >= 1:
		return fmt.Errorf("fit: observed utilization X·So/Ps = %v >= 1; no closed model reproduces it",
			w.X*w.So/float64(w.Ps))
	}
	return nil
}

// WindowFit is the parameterization refit from one traffic window. The
// JSON shape is what /v1/calibration serves.
type WindowFit struct {
	// W, St, So are in the window's time unit; C2 is dimensionless.
	W  float64 `json:"w"`
	St float64 `json:"st"`
	So float64 `json:"so"`
	C2 float64 `json:"c2"`
	// Loss is the value of the refit objective at the returned point
	// (squared relative residuals of throughput, server response, and —
	// when measured — overhead).
	Loss float64 `json:"loss"`
	// Method records how the point was found: "leastsquares" when the
	// optimizer improved on the closed-form start, "moments" when the
	// closed-form moment inversion already minimized the objective.
	Method string `json:"method"`
}

// ClientServerWindow refits (W, St, So, C²) to one live-traffic window.
// So and C² come straight from the service-sample moments; (W, St) are
// found by bounded least squares (W, St ≥ 0) so the client-server AMVA
// model reproduces the window's observed throughput and server
// response, with the measured per-request overhead anchoring 2·St. The
// closed-form moment inversion (W from the cycle identity
// P_c/X = W + 2St + Rs + So) is the optimizer's start and stands in
// wherever the optimizer cannot improve on it, so every valid window
// yields a usable fit. Solves made by the residual evaluations are
// reported to observer (which may be nil).
func ClientServerWindow(w WindowObs, observer obspkg.SolveObserver) (WindowFit, error) {
	if err := w.Validate(); err != nil {
		return WindowFit{}, err
	}
	pc := float64(w.P - w.Ps)
	rs := math.Max(w.Rs, w.So) // queueing cannot make the response shorter than service

	// Closed-form start: St from the measured overhead (two trips per
	// request), W from the cycle identity, floored at a small positive
	// value.
	st0 := w.Overhead / 2
	w0 := pc/w.X - 2*st0 - rs - w.So
	if !(w0 > 0) {
		w0 = w.So / 100
	}

	// The fit is over (W, St), or over W alone when there is no overhead
	// stream: St is then pinned at st0 = 0.
	xs := [2]float64{w0, st0}
	x := xs[:]
	if w.Overhead <= 0 {
		x = xs[:1]
	}
	residuals := func(x, r []float64) bool {
		st := st0
		if len(x) > 1 {
			st = x[1]
		}
		res, err := core.ClientServerObserved(core.ClientServerParams{
			P: w.P, Ps: w.Ps, W: x[0], St: st, So: w.So, C2: w.C2,
		}, observer)
		if err != nil {
			return false
		}
		r[0] = (res.X - w.X) / w.X
		r[1] = (res.Rs - rs) / rs
		if len(x) > 1 {
			r[2] = (2*st - w.Overhead) / w.Overhead
		}
		return true
	}
	loss, _, err := numeric.LeastSquares(residuals, x, []float64{0, 0}[:len(x)], len(x)+1)
	if math.IsInf(loss, 1) {
		return WindowFit{}, fmt.Errorf("fit: no feasible (W, St) for window %+v: %w", w, err)
	}
	method := "leastsquares"
	//lopc:allow floateq the optimizer returns its start unchanged, bit for bit, when no step lowered the loss
	if xs[0] == w0 && xs[1] == st0 {
		method = "moments"
	}
	return WindowFit{W: xs[0], St: xs[1], So: w.So, C2: w.C2, Loss: loss, Method: method}, nil
}
