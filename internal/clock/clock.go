// Package clock puts wall-clock access behind an interface so that
// deterministic code paths never call time.Now directly. Production
// code takes a Clock (defaulting to System); tests inject a Fake and
// advance it by hand, making time-dependent behaviour — progress
// throttling, ETA estimates — exactly reproducible.
//
// This is the one sanctioned home for time.Now: the clockseam analyzer
// (internal/lint) forbids direct wall-clock access everywhere else.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time.
type Clock interface {
	Now() time.Time
}

// Waiter extends Clock with scheduling: After returns a channel that
// delivers the clock's time once d has elapsed on that clock. On the
// system clock this is time.After; on a Fake the channel fires when
// Advance or Set moves the clock past the deadline, which is what lets
// timeout paths (admission-queue waits, shutdown drains) run under
// fake time in tests.
type Waiter interface {
	Clock
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// System is the real wall clock.
var System Waiter = systemClock{}

// Fake is a manually advanced clock for tests. The zero value starts
// at the zero time; NewFake picks the origin. Fake is safe for
// concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

// fakeWaiter is one pending After call on a Fake.
type fakeWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewFake returns a Fake reading start until advanced.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the fake forward by d (d may be negative, though tests
// rarely want that) and fires any After channels whose deadline has
// been reached.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.fire()
}

// Set jumps the fake to t and fires any After channels whose deadline
// has been reached.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = t
	f.fire()
}

// After returns a channel that receives the fake's time once Advance
// or Set moves the clock to or past now+d. A non-positive d fires
// immediately.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	f.waiters = append(f.waiters, fakeWaiter{deadline: f.now.Add(d), ch: ch})
	f.fire()
	return ch
}

// Pending reports how many After channels have not fired yet. A test
// that advances the clock to trip a timer another goroutine arms waits
// for the timer to be armed first.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// fire delivers to every waiter whose deadline has passed. Callers
// hold f.mu, so its sends must not block, and they cannot: every
// waiter channel is buffered (cap 1) and receives at most one send
// before being dropped.
func (f *Fake) fire() {
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.deadline.After(f.now) {
			w.ch <- f.now
			continue
		}
		kept = append(kept, w)
	}
	f.waiters = kept
}
