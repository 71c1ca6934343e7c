// Package clockseam exercises the clock-seam analyzer: direct time.*
// access and timer construction are findings everywhere outside
// internal/clock; duration values and arithmetic stay legal.
package clockseam

import "time"

// Deadline reads the wall clock directly instead of taking a
// clock.Clock.
func Deadline(d time.Duration) time.Time {
	return time.Now().Add(d) // want "time.Now bypasses the clock.Clock seam"
}

// Pause blocks the real scheduler; a fake clock cannot advance it.
func Pause() {
	time.Sleep(time.Millisecond) // want "time.Sleep bypasses the clock.Clock seam"
}

// Build constructs a timer value directly.
func Build() *time.Timer {
	return &time.Timer{} // want "constructing time.Timer directly bypasses the clock.Clock seam"
}

// Elapsed reads the wall clock twice.
func Elapsed() time.Duration {
	start := time.Now()      // want "time.Now bypasses the clock.Clock seam"
	return time.Since(start) // want "time.Since bypasses the clock.Clock seam"
}

// Budget only represents durations — the contract covers reading the
// clock, not arithmetic on time values.
func Budget(n int) time.Duration {
	return time.Duration(n) * 2 * time.Second
}

// Epoch converts a fixed instant; no clock is read.
func Epoch() time.Time {
	return time.Unix(0, 0)
}

// calibrated is the suppressed positive: a justified allow keeps the
// wall-clock read.
func calibrated() time.Time {
	//lopc:allow clockseam fixture: suppressed-case coverage for the harness
	return time.Now()
}

var _ = calibrated
