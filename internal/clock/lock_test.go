package clock_test

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
)

var lockOrigin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestFakeLocksReleased drives every Fake method — an After that fires
// at once, one left pending, the pending count, and Advance and Set
// past the pending deadline — and requires the fake's mutex to be free
// after each.
func TestFakeLocksReleased(t *testing.T) {
	f := clock.NewFake(lockOrigin)
	mu := clock.FakeMu(f)
	var pending <-chan time.Time
	leakguard.Unlocked(t, "Now", func() { f.Now() }, mu)
	leakguard.Unlocked(t, "After that fires at once", func() { <-f.After(0) }, mu)
	leakguard.Unlocked(t, "After left pending", func() { pending = f.After(time.Hour) }, mu)
	leakguard.Unlocked(t, "Pending", func() { f.Pending() }, mu)
	leakguard.Unlocked(t, "Advance short of the deadline", func() { f.Advance(time.Minute) }, mu)
	leakguard.Unlocked(t, "Set past the deadline", func() { f.Set(lockOrigin.Add(2 * time.Hour)); <-pending }, mu)
}

// TestFakeLocksReleasedWithUnreadWaiters: fire sends on the waiter
// channels while holding the fake's mutex, so those sends must never
// block. With several After channels nobody reads, Advance, Set and
// After past them again and again must each return promptly and leave
// the mutex free.
func TestFakeLocksReleasedWithUnreadWaiters(t *testing.T) {
	f := clock.NewFake(lockOrigin)
	mu := clock.FakeMu(f)
	for round := range 8 {
		for i := range 4 {
			f.After(time.Duration(i) * time.Second)
		}
		leakguard.Unlocked(t, "Advance past unread waiters", func() { f.Advance(10 * time.Second) }, mu)
		for i := range 4 {
			f.After(time.Duration(i) * time.Second)
		}
		leakguard.Unlocked(t, "Set past unread waiters", func() { f.Set(f.Now().Add(10 * time.Second)) }, mu)
		leakguard.Unlocked(t, "After at or past its deadline, unread", func() {
			for i := range 4 {
				f.After(-time.Duration(i) * time.Second)
			}
		}, mu)
		if n := f.Pending(); n != 0 {
			t.Fatalf("round %d: %d waiters left pending", round, n)
		}
	}
}
