// Package leakguard backs the module's run-time leak assertions. A
// call that starts goroutines must have joined every one of them by
// the time it returns, or by the time whatever it waits on is released
// (Settle). A call that takes a mutex must release it on every path,
// early returns and recovered panics included, and must not block on
// it when a callback re-enters the lock's owner (Unlocked). Only tests
// import it.
package leakguard

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// Settle waits for runtime.NumGoroutine() to come back to base or
// below and fails t if it has not within five seconds, listing the
// goroutines still alive. A goroutine that has signalled its exit
// (wg.Done, a send on a buffered channel) needs a moment more for the
// runtime to retire it, hence the wait.
func Settle(t testing.TB, base int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 5000 {
			var stacks strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("after %s: %d goroutines, want at most %d\n%s", what, runtime.NumGoroutine(), base, stacks.String())
		}
		<-clock.System.After(time.Millisecond)
	}
}

// Unlocked runs fn on a goroutine of its own and fails t unless fn
// returns within five seconds and every mu is free afterwards. A lock
// left held by some path of fn counts as a leak; a callback inside fn
// that re-enters a lock its caller still holds blocks, and the
// deadline turns that hang into a failure naming what. A panic in fn
// is re-raised on the test goroutine; fn reports through t.Error, not
// t.Fatal.
func Unlocked(t testing.TB, what string, fn func(), mus ...*sync.Mutex) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		if r != nil {
			panic(fmt.Sprintf("%s: %v", what, r))
		}
	case <-clock.System.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s: a lock is held across a call that needs it", what)
	}
	for i, mu := range mus {
		if !mu.TryLock() {
			t.Fatalf("after %s: lock %d of %d is still held", what, i+1, len(mus))
		}
		mu.Unlock()
	}
}
