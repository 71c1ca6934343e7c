package psim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/leakguard"
)

// faultLP re-sends to itself every time unit; with fail set, its first
// delivery panics, as faulty model code would.
type faultLP struct{ fail bool }

func (l *faultLP) Start(c *Ctx) { c.Send(c.Self(), 1, 0, Msg{}) }
func (l *faultLP) Handle(c *Ctx, _ *Event) {
	if l.fail {
		panic("model fault")
	}
	c.Send(c.Self(), 1, 0, Msg{})
}
func (l *faultLP) Save(any) any { return nil }
func (l *faultLP) Restore(any)  {}

// TestDriverLocksReleased runs the parallel driver on both parallel
// cores to completion and through recorded worker panics (one faulty
// block, then every block faulty, so a second panic records after the
// first), and requires failMu and the barrier's mutex to be free after
// each run.
func TestDriverLocksReleased(t *testing.T) {
	faults := [][]bool{ // per LP; worker 1 owns LPs 2 and 3
		{false, false, false, false},
		{false, false, false, true},
		{true, true, true, true},
	}
	for _, opt := range []bool{false, true} {
		for _, fault := range faults {
			lps := make([]LP, len(fault))
			for i, f := range fault {
				lps[i] = &faultLP{fail: f}
			}
			k, err := newKernel(Config{LPs: lps, Lookahead: 1, Until: 20})
			if err != nil {
				t.Fatal(err)
			}
			d := k.newDriver(2, opt)
			leakguard.Unlocked(t, fmt.Sprintf("opt %v, faults %v", opt, fault), func() {
				defer func() {
					if r := recover(); (r != nil) != fault[3] {
						t.Errorf("opt %v, faults %v: run panicked with %v", opt, fault, r)
					}
				}()
				d.run()
			}, &d.failMu, &d.bar.mu)
		}
	}
}

// TestBarrierLocksReleased drives the barrier's parking paths: a
// parked waiter woken by the last arrival's broadcast, and one woken
// by abort. Each must leave the barrier's mutex free.
func TestBarrierLocksReleased(t *testing.T) {
	var b barrier
	b.init(2, false)
	parkOne := func() chan bool {
		got := make(chan bool, 1)
		go func() { got <- b.wait() }()
		for b.parked.Load() == 0 {
			runtime.Gosched()
		}
		return got
	}
	leakguard.Unlocked(t, "last arrival wakes a parked waiter", func() {
		got := parkOne()
		if !b.wait() || !<-got {
			t.Error("a completed barrier round reported abort")
		}
	}, &b.mu)
	leakguard.Unlocked(t, "abort wakes a parked waiter", func() {
		got := parkOne()
		if b.abort(); <-got {
			t.Error("an aborted wait reported success")
		}
	}, &b.mu)
}
