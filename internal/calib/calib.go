// Package calib closes the model-in-the-loop feedback edge: the serve
// layer measures its own queue waits and service times, and this
// package turns those live sample streams into a continuously refit
// (St, So, C²) parameterization of the client-server work-pile model —
// the parameters internal/fit otherwise calibrates offline from CSV
// sweeps.
//
// The Estimator consumes three per-request streams, delivered through
// the obs.Histogram sample tap (or called directly): service time
// (solver-slot occupancy), queue wait, and dispatch overhead (total
// latency minus wait minus service, ≈ the model's two network trips).
// Every Window service samples it closes a window: service moments give
// So and C² directly, and fit.ClientServerWindow inverts the AMVA model
// — the same least-squares kernel as the offline fits — to recover
// (W, St) from the window's throughput, mean server response, and mean
// overhead.
//
// Windows feed two mechanisms:
//
//   - Refit-and-compare: a clean window's fit is blended into the
//     running parameterization with an EWMA (weight Alpha), so the
//     published fit tracks slow drift without chasing noise.
//   - CUSUM drift detection: each window's mean service time is
//     standardized against the current fit (z = (m − So)/(s/√n)) and
//     accumulated into a two-sided CUSUM. When either side crosses the
//     decision threshold the estimator declares drift, adopts the
//     window's fit wholesale (the old regime's history is stale), and
//     resets the detector. The lopc_model_drift gauge holds 1 until the
//     next clean window confirms re-convergence.
//
// All timekeeping goes through an injected clock.Clock, so every
// behavior — window throughput, drift latency, the exposition of the
// calib metrics — is fake-clock testable. Times are microseconds
// throughout, matching the serve layer's histograms.
package calib

import (
	"math"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fit"
	"repro/internal/obs"
)

// Defaults for Config's zero fields.
const (
	DefaultWindow = 256
	DefaultAlpha  = 0.25
	DefaultDriftK = 0.5
	DefaultDriftH = 5.0
	// zCap bounds one window's standardized residual so a single wild
	// window cannot saturate the CUSUM by itself (and so a zero-variance
	// window with a real shift contributes a large finite step).
	zCap = 8.0
)

// Config tunes an Estimator.
type Config struct {
	// P is the modeled closed client population (concurrent callers
	// plus queued requests); Ps the server (worker) count. Both are
	// required: the refit inverts a closed model and must know its
	// population split.
	P, Ps int
	// Window is the number of service samples per refit window.
	// Defaults to DefaultWindow.
	Window int
	// Alpha is the EWMA weight a clean window's fit receives when
	// blended into the running fit. Defaults to DefaultAlpha.
	Alpha float64
	// DriftK is the CUSUM slack per window in standard errors, and
	// DriftH the decision threshold; defaults DefaultDriftK/DriftH.
	DriftK, DriftH float64
	// Clock supplies window timestamps. nil means the system clock;
	// tests inject a clock.Fake.
	Clock clock.Clock
	// Registry, when non-nil, receives the calib metrics: the
	// lopc_model_drift gauge, refit/drift counters, per-stream sample
	// counters, and per-parameter gauges.
	Registry *obs.Registry
	// Observer, when non-nil, sees every model solve the window refits
	// make (the serve layer passes its ConvRecorder). A refit runs
	// inside the Observe call that closes its window, under the
	// Estimator's lock, so the Observer must not call back into the
	// Estimator: a BeginSolve or completion func that calls Params,
	// Snapshot or an Observe method deadlocks. The ConvRecorder only
	// calls down into its registry.
	Observer obs.SolveObserver
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.DriftK <= 0 {
		c.DriftK = DefaultDriftK
	}
	if c.DriftH <= 0 {
		c.DriftH = DefaultDriftH
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// WindowStats describes the last closed window.
type WindowStats struct {
	// N is the service-sample count (the window size).
	N int `json:"n"`
	// ElapsedUS is the wall span of the window on the injected clock.
	ElapsedUS float64 `json:"elapsed_us"`
	// X is the window throughput in requests per microsecond.
	X float64 `json:"x"`
	// MeanServiceUS, ServiceC2, MeanWaitUS, MeanOverheadUS are the
	// window's stream moments.
	MeanServiceUS  float64 `json:"mean_service_us"`
	ServiceC2      float64 `json:"service_c2"`
	MeanWaitUS     float64 `json:"mean_wait_us"`
	MeanOverheadUS float64 `json:"mean_overhead_us"`
	// Z is the standardized service residual the CUSUM consumed (0 for
	// the first window, which has no fit to compare against).
	Z float64 `json:"z"`
	// FitOK reports whether the window's refit produced a usable fit.
	FitOK bool `json:"fit_ok"`
	// FitErr carries the refit error when FitOK is false.
	FitErr string `json:"fit_err,omitempty"`
}

// Drift describes the CUSUM detector state.
type Drift struct {
	// Active is true from the window that crossed the threshold until
	// the next clean window confirms re-convergence.
	Active bool `json:"active"`
	// Events counts threshold crossings since the estimator started.
	Events int `json:"events"`
	// Pos and Neg are the current one-sided CUSUM accumulators; K and H
	// the configured slack and threshold.
	Pos float64 `json:"pos"`
	Neg float64 `json:"neg"`
	K   float64 `json:"k"`
	H   float64 `json:"h"`
}

// Samples counts the stream observations consumed so far.
type Samples struct {
	Service  int64 `json:"service"`
	Wait     int64 `json:"wait"`
	Overhead int64 `json:"overhead"`
}

// Snapshot is a point-in-time copy of the estimator's state, shaped for
// the /v1/calibration endpoint.
type Snapshot struct {
	// Ready reports whether a fit has been produced; Fit is meaningless
	// until it is.
	Ready bool `json:"ready"`
	// Fit is the current blended parameterization (microseconds).
	Fit fit.WindowFit `json:"fit"`
	// P and Ps echo the modeled population split.
	P  int `json:"p"`
	Ps int `json:"ps"`
	// WindowSize is the refit window; Pending the service samples
	// collected toward the next window.
	WindowSize int `json:"window_size"`
	Pending    int `json:"pending"`
	// Windows counts closed windows; Refits successful refits;
	// RefitFailures windows whose refit errored (stale fit kept).
	Windows       int `json:"windows"`
	Refits        int `json:"refits"`
	RefitFailures int `json:"refit_failures"`
	// LastWindow is the most recently closed window.
	LastWindow WindowStats `json:"last_window"`
	Drift      Drift       `json:"drift"`
	Samples    Samples     `json:"samples"`
}

// Estimator is the streaming (St, So, C²) calibrator. Construct with
// New; feed it with ObserveService/ObserveWait/ObserveOverhead (or wire
// those to obs.Histogram taps); read it with Snapshot and Params.
// All methods are safe for concurrent use.
type Estimator struct {
	cfg Config
	clk clock.Clock

	mu       sync.Mutex
	winStart time.Time
	// Welford accumulators for the current window's service samples.
	n               int
	svcMean, svcM2  float64
	waitSum         float64
	waitN           int64
	ohSum           float64
	ohN             int64
	totals          Samples
	ready           bool
	cur             fit.WindowFit
	windows, refits int
	refitFails      int
	gPos, gNeg      float64
	driftActive     bool
	driftEvents     int
	last            WindowStats

	mDrift       *obs.Gauge
	mRefits      *obs.Counter
	mRefitFails  *obs.Counter
	mDriftEvents *obs.Counter
	mSvc         *obs.Counter
	mWait        *obs.Counter
	mOh          *obs.Counter
}

// New builds an Estimator. The configured population split must satisfy
// 2 <= P and 1 <= Ps < P (the closed model's requirement); New panics
// otherwise — it is a wiring error, not a runtime condition.
func New(cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	if cfg.P < 2 || cfg.Ps < 1 || cfg.Ps >= cfg.P {
		panic("calib: need 2 <= P and 1 <= Ps < P")
	}
	e := &Estimator{cfg: cfg, clk: cfg.Clock, winStart: cfg.Clock.Now()}
	if reg := cfg.Registry; reg != nil {
		e.mDrift = reg.Gauge("lopc_model_drift",
			"1 while the calibrator's CUSUM detector has declared drift, else 0.", nil)
		e.mRefits = reg.Counter("lopc_calib_window_refits_total",
			"Traffic windows successfully refit into the running parameterization.", nil)
		e.mRefitFails = reg.Counter("lopc_calib_window_refit_failures_total",
			"Traffic windows whose refit failed (previous fit kept).", nil)
		e.mDriftEvents = reg.Counter("lopc_calib_drift_events_total",
			"CUSUM drift detections since start.", nil)
		sampleHelp := "Calibration samples consumed, by stream."
		e.mSvc = reg.Counter("lopc_calib_samples_total", sampleHelp, obs.Labels{"stream": "service"})
		e.mWait = reg.Counter("lopc_calib_samples_total", sampleHelp, obs.Labels{"stream": "wait"})
		e.mOh = reg.Counter("lopc_calib_samples_total", sampleHelp, obs.Labels{"stream": "overhead"})
		// Per-parameter gauges read the live fit at scrape time; they
		// report 0 until the first window lands.
		fitGauge := func(name, help string, f func(fit.WindowFit) float64) {
			reg.GaugeFunc(name, help, nil, func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				if !e.ready {
					return 0
				}
				return f(e.cur)
			})
		}
		fitGauge("lopc_calib_st_us", "Fitted network/dispatch latency St, microseconds.",
			func(f fit.WindowFit) float64 { return f.St })
		fitGauge("lopc_calib_so_us", "Fitted handler service time So, microseconds.",
			func(f fit.WindowFit) float64 { return f.So })
		fitGauge("lopc_calib_w_us", "Fitted client think time W, microseconds.",
			func(f fit.WindowFit) float64 { return f.W })
		fitGauge("lopc_calib_c2", "Fitted squared coefficient of variation of service.",
			func(f fit.WindowFit) float64 { return f.C2 })
	}
	return e
}

// ObserveService records one service-time sample (microseconds). The
// Window-th sample closes the current window and runs the refit and
// drift detector synchronously on the calling goroutine — a bounded
// amount of work (one least-squares fit over a closed-form model) every
// Window requests.
func (e *Estimator) ObserveService(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mSvc != nil {
		e.mSvc.Inc()
	}
	e.totals.Service++
	e.n++
	d := v - e.svcMean
	e.svcMean += d / float64(e.n)
	e.svcM2 += d * (v - e.svcMean)
	if e.n >= e.cfg.Window {
		e.closeWindow()
	}
}

// ObserveWait records one queue-wait sample (microseconds).
func (e *Estimator) ObserveWait(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mWait != nil {
		e.mWait.Inc()
	}
	e.totals.Wait++
	e.waitSum += v
	e.waitN++
}

// ObserveOverhead records one dispatch-overhead sample (microseconds):
// per-request time outside queueing and service, ≈ 2·St.
func (e *Estimator) ObserveOverhead(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mOh != nil {
		e.mOh.Inc()
	}
	e.totals.Overhead++
	e.ohSum += v
	e.ohN++
}

// closeWindow refits the collected window and runs the drift detector.
// Caller holds e.mu.
func (e *Estimator) closeWindow() {
	now := e.clk.Now()
	stats := WindowStats{
		N:             e.n,
		ElapsedUS:     float64(now.Sub(e.winStart)) / float64(time.Microsecond),
		MeanServiceUS: e.svcMean,
	}
	variance := e.svcM2 / float64(e.n)
	if e.svcMean > 0 {
		stats.ServiceC2 = variance / (e.svcMean * e.svcMean)
	}
	if e.waitN > 0 {
		stats.MeanWaitUS = e.waitSum / float64(e.waitN)
	}
	if e.ohN > 0 {
		stats.MeanOverheadUS = e.ohSum / float64(e.ohN)
	}
	if stats.ElapsedUS > 0 {
		stats.X = float64(e.n) / stats.ElapsedUS
	}
	e.windows++

	// CUSUM on the standardized service residual against the current
	// fit. The standard error of the window mean is s/√n; a capped z
	// keeps one window's influence bounded.
	drifted := false
	if e.ready {
		se := math.Sqrt(variance / float64(e.n))
		resid := stats.MeanServiceUS - e.cur.So
		var z float64
		switch {
		case se > 0:
			z = resid / se
		//lopc:allow floateq a zero-variance window saturates the statistic unless its mean sits exactly on the fit
		case resid != 0:
			z = math.Copysign(zCap, resid)
		}
		z = math.Max(-zCap, math.Min(zCap, z))
		stats.Z = z
		e.gPos = math.Max(0, e.gPos+z-e.cfg.DriftK)
		e.gNeg = math.Max(0, e.gNeg-z-e.cfg.DriftK)
		drifted = e.gPos > e.cfg.DriftH || e.gNeg > e.cfg.DriftH
	}

	wf, err := fit.ClientServerWindow(fit.WindowObs{
		P: e.cfg.P, Ps: e.cfg.Ps,
		X:        stats.X,
		Rs:       stats.MeanWaitUS + stats.MeanServiceUS,
		So:       stats.MeanServiceUS,
		C2:       stats.ServiceC2,
		Overhead: stats.MeanOverheadUS,
	}, e.cfg.Observer)
	switch {
	case err != nil:
		stats.FitErr = err.Error()
		e.refitFails++
		if e.mRefitFails != nil {
			e.mRefitFails.Inc()
		}
	case !e.ready || drifted:
		// First window, or a confirmed regime change: adopt wholesale.
		stats.FitOK = true
		e.cur = wf
		e.ready = true
		e.bumpRefit()
	default:
		// Clean window: blend, and confirm recovery from any prior
		// drift.
		stats.FitOK = true
		a := e.cfg.Alpha
		e.cur.W = (1-a)*e.cur.W + a*wf.W
		e.cur.St = (1-a)*e.cur.St + a*wf.St
		e.cur.So = (1-a)*e.cur.So + a*wf.So
		e.cur.C2 = (1-a)*e.cur.C2 + a*wf.C2
		e.cur.Loss, e.cur.Method = wf.Loss, wf.Method
		e.bumpRefit()
		e.setDrift(false)
	}
	if drifted {
		e.driftEvents++
		if e.mDriftEvents != nil {
			e.mDriftEvents.Inc()
		}
		e.setDrift(true)
		e.gPos, e.gNeg = 0, 0
	}

	e.last = stats
	e.n, e.svcMean, e.svcM2 = 0, 0, 0
	e.waitSum, e.waitN = 0, 0
	e.ohSum, e.ohN = 0, 0
	e.winStart = now
}

// bumpRefit counts one successful refit. Caller holds e.mu.
func (e *Estimator) bumpRefit() {
	e.refits++
	if e.mRefits != nil {
		e.mRefits.Inc()
	}
}

// setDrift updates the drift flag and its gauge. Caller holds e.mu.
func (e *Estimator) setDrift(active bool) {
	e.driftActive = active
	if e.mDrift != nil {
		if active {
			e.mDrift.Set(1)
		} else {
			e.mDrift.Set(0)
		}
	}
}

// Params returns the current blended fit and whether one exists yet.
func (e *Estimator) Params() (fit.WindowFit, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur, e.ready
}

// Population returns the modeled (P, Ps) split the estimator fits
// against.
func (e *Estimator) Population() (p, ps int) {
	return e.cfg.P, e.cfg.Ps
}

// Snapshot copies the estimator's full state.
func (e *Estimator) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Snapshot{
		Ready:         e.ready,
		Fit:           e.cur,
		P:             e.cfg.P,
		Ps:            e.cfg.Ps,
		WindowSize:    e.cfg.Window,
		Pending:       e.n,
		Windows:       e.windows,
		Refits:        e.refits,
		RefitFailures: e.refitFails,
		LastWindow:    e.last,
		Drift: Drift{
			Active: e.driftActive,
			Events: e.driftEvents,
			Pos:    e.gPos,
			Neg:    e.gNeg,
			K:      e.cfg.DriftK,
			H:      e.cfg.DriftH,
		},
		Samples: e.totals,
	}
}
