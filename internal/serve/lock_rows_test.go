package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
	"repro/internal/obs"
)

// TestSolveCacheLocksReleased drives every path of the solve cache — a
// miss, a hit, an erroring and a panicking solve, eviction, a
// collapsed get, and the memoization-off cache — and requires the
// cache's mutex to be free after each.
func TestSolveCacheLocksReleased(t *testing.T) {
	c, off := newSolveCache(2), newSolveCache(0)
	free := func(what string, fn func()) { t.Helper(); leakguard.Unlocked(t, what, fn, &c.mu, &off.mu) }
	get := func(c *solveCache, key string, solve func() ([]byte, error)) { _, _, _ = c.get([]byte(key), solve) }
	val := func() ([]byte, error) { return []byte("v"), nil }
	free("miss", func() { get(c, "a", val) })
	free("hit", func() { get(c, "a", val) })
	free("erroring solve", func() { get(c, "e", func() ([]byte, error) { return nil, errors.New("infeasible") }) })
	free("panicking solve", func() {
		defer func() { _ = recover() }()
		get(c, "p", func() ([]byte, error) { panic("solver bug") })
	})
	free("eviction", func() { get(c, "b", val); get(c, "d", val) })
	free("len", func() { c.len() })
	free("collapsed get", func() {
		release, done := make(chan struct{}), make(chan struct{})
		go func() { get(c, "slow", func() ([]byte, error) { <-release; return val() }); close(done) }()
		go func() {
			for range 100 {
				runtime.Gosched()
			}
			close(release)
		}()
		get(c, "slow", val)
		<-done
	})
	free("memoization off", func() { get(off, "a", val) })
}

// TestSolveCacheCallbackReentry: solve runs with the cache unlocked,
// and a collapsed get waits for its flight unlocked, so a solve that
// calls back into the cache — a nested get, and len while another get
// on its own key waits on it — returns.
func TestSolveCacheCallbackReentry(t *testing.T) {
	c := newSolveCache(4)
	leakguard.Unlocked(t, "a solve that runs a nested get", func() {
		_, _, _ = c.get([]byte("outer"), func() ([]byte, error) {
			v, _, err := c.get([]byte("inner"), func() ([]byte, error) { return []byte("I"), nil })
			return v, err
		})
	}, &c.mu)
	leakguard.Unlocked(t, "a solve that calls len while a get on its key waits", func() {
		for attempt := range 100 {
			key := []byte(fmt.Sprint("k", attempt))
			got := make(chan outcome, 1)
			_, _, _ = c.get(key, func() ([]byte, error) {
				go func() {
					_, o, _ := c.get(key, func() ([]byte, error) { return nil, nil })
					got <- o
				}()
				for range 1000 {
					c.len()
					runtime.Gosched()
				}
				return []byte("V"), nil
			})
			if <-got == outcomeCollapsed {
				return
			}
		}
		t.Error("no get collapsed onto an in-flight solve in 100 attempts")
	}, &c.mu)
}

// TestMetricsLocksReleased drives the metrics layer's locked methods —
// first and repeated route registration and the JSON snapshot — and
// requires its mutex to be free after each.
func TestMetricsLocksReleased(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	m := newMetrics(start, obs.NewRegistry())
	leakguard.Unlocked(t, "first route", func() { m.route("alltoall") }, &m.mu)
	leakguard.Unlocked(t, "repeated route", func() { m.route("alltoall") }, &m.mu)
	leakguard.Unlocked(t, "snapshot", func() { m.snapshot(start, 1, 8, false) }, &m.mu)
}

// TestServerCallbackReentry: the server's derived gauges read the solve
// cache at scrape time, and a scrape can happen while a solve is in
// flight; a solve that scrapes both expositions returns.
func TestServerCallbackReentry(t *testing.T) {
	s := New(Config{Clock: clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))})
	leakguard.Unlocked(t, "a solve that scrapes the metrics", func() {
		_, _, _ = s.cache.get([]byte("k"), func() ([]byte, error) {
			s.met.snapshot(s.clk.Now(), s.cache.len(), 8, false)
			return nil, s.reg.WritePrometheus(io.Discard)
		})
	}, &s.cache.mu, &s.met.mu)
}
