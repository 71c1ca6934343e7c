package trace

import (
	"io"
	"testing"
	"time"

	"repro/internal/leakguard"
)

// TestSpansLocksReleased drives every Spans method — lane allocation
// and reuse, a recorded end, an end past MaxEvents (the early return),
// the readers and WriteJSON — and requires the collector's mutex to be
// free after each.
func TestSpansLocksReleased(t *testing.T) {
	s := NewSpans(fakeClk())
	s.MaxEvents = 1
	var a, b func(map[string]any)
	leakguard.Unlocked(t, "Start", func() { a, b = s.Start("c", "a"), s.Start("c", "b") }, &s.mu)
	leakguard.Unlocked(t, "end recorded", func() { a(nil) }, &s.mu)
	leakguard.Unlocked(t, "end past MaxEvents", func() { b(nil) }, &s.mu)
	leakguard.Unlocked(t, "Start on a reused lane", func() { s.Start("c", "c")(nil) }, &s.mu)
	leakguard.Unlocked(t, "Len", func() { s.Len() }, &s.mu)
	leakguard.Unlocked(t, "Truncated", func() { s.Truncated() }, &s.mu)
	leakguard.Unlocked(t, "WriteJSON", func() { _ = s.WriteJSON(io.Discard) }, &s.mu)
	if !s.Truncated() || s.Len() != 1 {
		t.Errorf("Len %d, Truncated %v; want 1 span and truncation", s.Len(), s.Truncated())
	}
}

// clockFunc adapts a function to clock.Clock.
type clockFunc func() time.Time

func (f clockFunc) Now() time.Time { return f() }

// TestSpansCallbackReentry: Start and the end closure read the clock
// outside the collector's lock, so a clock that re-enters the
// collector returns.
func TestSpansCallbackReentry(t *testing.T) {
	fake := fakeClk()
	var s *Spans
	s = NewSpans(clockFunc(func() time.Time {
		if s != nil {
			s.Len()
		}
		return fake.Now()
	}))
	leakguard.Unlocked(t, "a span timed by a clock that re-enters Spans", func() { s.Start("c", "n")(nil) }, &s.mu)
}
