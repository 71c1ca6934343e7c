package calib

import (
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
	"repro/internal/obs"
)

// TestEstimatorLocksReleased drives every Estimator method through
// each window outcome — rejected samples, the first fit, clean blends,
// a failed refit, and a drift adoption — plus the readers and the fit
// gauges, and requires the estimator's mutex to be free after each.
func TestEstimatorLocksReleased(t *testing.T) {
	const window = 32
	reg := obs.NewRegistry()
	clk := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	e := New(Config{P: truth.P, Ps: truth.Ps, Window: window, Clock: clk, Registry: reg,
		Observer: obs.NewConvRecorder(8, clk, reg)})
	g := newTraffic(t, e, clk, 5)
	free := func(what string, fn func()) { t.Helper(); leakguard.Unlocked(t, what, fn, &e.mu) }
	free("rejected samples", func() { e.ObserveService(math.NaN()); e.ObserveWait(-1); e.ObserveOverhead(math.NaN()) })
	free("first window", func() { g.run(window) })
	free("clean windows", func() { g.run(9 * window) })
	free("failed refit", func() {
		for range window {
			e.ObserveService(200)
		}
	})
	free("drift", func() { g.setScale(3); g.run(5 * window) })
	free("readers", func() { e.Params(); e.Population(); e.Snapshot() })
	free("fit gauges", func() { _ = reg.WritePrometheus(io.Discard) })
	s := e.Snapshot()
	if s.RefitFailures == 0 || s.Drift.Events == 0 || s.Refits < 2 {
		t.Errorf("a window outcome was not reached: %d refits, %d failures, %d drift events",
			s.Refits, s.RefitFailures, s.Drift.Events)
	}
}

// TestEstimatorCallbackReentry closes the loop that would deadlock if
// the registry called a GaugeFunc under its own lock: a scrape runs a
// gauge that feeds a histogram tapped into the estimator, whose window
// refit reports to a ConvRecorder on the same registry while the
// estimator's own fit gauges are due in the same scrape.
func TestEstimatorCallbackReentry(t *testing.T) {
	reg := obs.NewRegistry()
	clk := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	conv := obs.NewConvRecorder(8, clk, reg)
	e := New(Config{P: truth.P, Ps: truth.Ps, Window: 4, Clock: clk, Registry: reg, Observer: conv})
	h := reg.Histogram("lopc_test_service_us", "h", nil, []float64{100, 1000})
	h.SetTap(e.ObserveService)
	reg.GaugeFunc("lopc_test_feed", "h", nil, func() float64 {
		for range 4 {
			clk.Advance(time.Millisecond)
			e.ObserveWait(50)
			e.ObserveOverhead(20)
			h.Observe(200)
		}
		return 1
	})
	leakguard.Unlocked(t, "a scrape whose gauge closes an estimator window", func() {
		_ = reg.WritePrometheus(io.Discard)
		_ = reg.WritePrometheus(io.Discard)
	}, &e.mu)
	if s := e.Snapshot(); s.Windows != 2 || conv.Total() == 0 {
		t.Errorf("%d windows closed and %d solves recorded, want 2 and some", s.Windows, conv.Total())
	}
}
