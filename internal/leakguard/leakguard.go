// Package leakguard backs the goroutine-count assertions at the
// module's spawn sites: a call that starts goroutines must have joined
// every one of them by the time it returns, or by the time whatever it
// waits on is released. Only tests import it.
package leakguard

import (
	"runtime"
	"runtime/pprof"
	"strings"
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
