package runner

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
)

// TestProgressLocksReleased drives every path of the progress printer
// — a throttled report, a stale count, a printed line, the final line
// and the summary — and requires its mutex to be free after each.
func TestProgressLocksReleased(t *testing.T) {
	clk := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	var out bytes.Buffer
	p := newProgress(Options{Progress: &out, Every: time.Second, Clock: clk}, 4)
	leakguard.Unlocked(t, "throttled report", func() { p.report(2) }, &p.mu)
	leakguard.Unlocked(t, "stale report", func() { p.report(1) }, &p.mu)
	leakguard.Unlocked(t, "printed report", func() { clk.Advance(2 * time.Second); p.report(3) }, &p.mu)
	leakguard.Unlocked(t, "final report", func() { p.report(4) }, &p.mu)
	leakguard.Unlocked(t, "summary", func() { p.summary(4) }, &p.mu)
	if got := strings.Count(out.String(), "\n"); got != 3 {
		t.Errorf("printed %d lines, want 3:\n%s", got, out.String())
	}
}
