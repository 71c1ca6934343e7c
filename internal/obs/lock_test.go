package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
)

// mustPanic calls f and reports an error unless it panicked.
func mustPanic(t *testing.T, what string, f func()) {
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestRegistryLocksReleased drives every Registry method — first and
// repeated registration of each kind, the panicking registrations, and
// the exposition — and requires the registry's mutex to be free after
// each.
func TestRegistryLocksReleased(t *testing.T) {
	r := NewRegistry()
	free := func(what string, fn func()) { t.Helper(); leakguard.Unlocked(t, what, fn, &r.mu) }
	free("first Counter", func() { r.Counter("a_total", "h", Labels{"k": "1"}).Inc() })
	free("repeated Counter", func() { r.Counter("a_total", "h", Labels{"k": "1"}).Inc() })
	free("Gauge", func() { r.Gauge("b", "h", nil).Set(2) })
	free("GaugeFunc", func() { r.GaugeFunc("b", "h", Labels{"k": "f"}, func() float64 { return 3 }) })
	free("Histogram", func() { r.Histogram("c_us", "h", nil, []float64{1, 10}).Observe(5) })
	free("kind mismatch", func() { mustPanic(t, "a Counter on a gauge family", func() { r.Counter("b", "h", nil) }) })
	free("gauge flavour mismatch", func() { mustPanic(t, "a Gauge on a GaugeFunc series", func() { r.Gauge("b", "h", Labels{"k": "f"}) }) })
	free("invalid name", func() { mustPanic(t, "an invalid metric name", func() { r.Counter("0bad", "h", nil) }) })
	free("WritePrometheus", func() { _ = r.WritePrometheus(io.Discard) })
}

// TestRegistryCallbackReentry: GaugeFunc callbacks run, and histogram
// taps fire, with the registry unlocked, so callbacks that register
// and read instruments of the same registry return.
func TestRegistryCallbackReentry(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tapped_us", "h", nil, []float64{1})
	h.SetTap(func(float64) { r.Counter("tap_total", "h", nil).Inc() })
	r.GaugeFunc("reentrant", "h", nil, func() float64 {
		r.Counter("scrape_total", "h", Labels{"new": "series"}).Inc()
		h.Observe(1)
		return float64(r.Counter("tap_total", "h", nil).Value())
	})
	leakguard.Unlocked(t, "a scrape whose GaugeFunc re-enters the registry", func() { _ = r.WritePrometheus(io.Discard) }, &r.mu)
}

// TestRegistryScrapeWhileRegistering scrapes while another goroutine
// registers new series in the family being rendered, as a server does
// when a route or solver is first seen during a /metrics request; the
// race detector reports any read of the series table outside the lock.
func TestRegistryScrapeWhileRegistering(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam_total", "h", Labels{"i": "first"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 500 {
			r.Counter("fam_total", "h", Labels{"i": fmt.Sprint(i)})
		}
	}()
	for range 50 {
		_ = r.WritePrometheus(io.Discard)
	}
	wg.Wait()
}

// TestConvRecorderLocksReleased drives the recorder with and without a
// registry — a clean solve, an error, guard trips, a ring that wraps —
// and its readers and exporters, and requires the recorder's and the
// registry's mutexes to be free after each.
func TestConvRecorderLocksReleased(t *testing.T) {
	reg := NewRegistry()
	clk := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	bare, c := NewConvRecorder(2, clk, nil), NewConvRecorder(2, clk, reg)
	free := func(what string, fn func()) { t.Helper(); leakguard.Unlocked(t, what, fn, &bare.mu, &c.mu, &reg.mu) }
	free("solve without a registry", func() { bare.BeginSolve("s")(SolveStats{Iters: 1}) })
	free("first solve", func() { c.BeginSolve("s")(SolveStats{Iters: 3, Converged: true}) })
	free("erroring solve", func() { c.BeginSolve("s")(SolveStats{Iters: 9, Err: "no convergence"}) })
	free("guard trips past the ring", func() { c.BeginSolve("t")(SolveStats{Iters: 2, GuardTrips: 1}) })
	free("WriteJSON", func() { _ = c.WriteJSON(io.Discard) })
	free("WriteCSV", func() { _ = c.WriteCSV(io.Discard) })
	if c.Total() != 3 || len(c.Traces()) != 2 {
		t.Errorf("Total %d, %d traces; want 3 and 2", c.Total(), len(c.Traces()))
	}
}

// clockFunc adapts a function to clock.Clock.
type clockFunc func() time.Time

func (f clockFunc) Now() time.Time { return f() }

// TestConvRecorderCallbackReentry: a solve reads the recorder's clock
// unlocked, and the registry runs GaugeFuncs unlocked, so a clock that
// reads the recorder and a gauge that records a solve both return.
func TestConvRecorderCallbackReentry(t *testing.T) {
	reg := NewRegistry()
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	var c *ConvRecorder
	c = NewConvRecorder(4, clockFunc(func() time.Time {
		if c != nil {
			c.Total()
		}
		return fake.Now()
	}), reg)
	reg.GaugeFunc("recording_gauge", "h", nil, func() float64 {
		c.BeginSolve("scrape")(SolveStats{Iters: 1, Err: "x", GuardTrips: 1})
		return float64(c.Total())
	})
	leakguard.Unlocked(t, "a scrape whose gauge records a solve", func() { _ = reg.WritePrometheus(io.Discard) }, &c.mu, &reg.mu)
}
