package obs

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return string(data)
}

func fakeClk() *clock.Fake {
	return clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

// record drives one solve through the recorder, advancing the fake
// clock by wall between begin and end.
func record(c *ConvRecorder, fake *clock.Fake, solver string, iters int, wall time.Duration) {
	done := c.BeginSolve(solver)
	fake.Advance(wall)
	done(SolveStats{Iters: iters, Residual: 1e-12, Converged: true})
}

// TestConvRecorderWallTime: wall times come from the injected clock, so
// they are deterministic under test.
func TestConvRecorderWallTime(t *testing.T) {
	fake := fakeClk()
	c := NewConvRecorder(8, fake, nil)
	record(c, fake, "alltoall", 17, 250*time.Microsecond)
	got := c.Traces()
	if len(got) != 1 {
		t.Fatalf("Traces() returned %d entries, want 1", len(got))
	}
	tr := got[0]
	if tr.Seq != 1 || tr.Solver != "alltoall" || tr.Iters != 17 || tr.WallUS != 250 {
		t.Errorf("trace = %+v, want seq 1, solver alltoall, 17 iters, 250µs", tr)
	}
	if !tr.Converged || tr.Residual != 1e-12 {
		t.Errorf("trace = %+v, want converged with residual 1e-12", tr)
	}
}

// TestConvRecorderEviction: the ring keeps only the newest cap solves,
// oldest first, while Total and Seq keep counting past eviction.
func TestConvRecorderEviction(t *testing.T) {
	fake := fakeClk()
	c := NewConvRecorder(3, fake, nil)
	for i := 1; i <= 7; i++ {
		record(c, fake, "general", i, time.Microsecond)
	}
	if c.Total() != 7 {
		t.Errorf("Total = %d, want 7", c.Total())
	}
	got := c.Traces()
	if len(got) != 3 {
		t.Fatalf("Traces() returned %d entries, want 3", len(got))
	}
	for i, wantSeq := range []int{5, 6, 7} {
		if got[i].Seq != wantSeq || got[i].Iters != wantSeq {
			t.Errorf("trace[%d] = seq %d iters %d, want seq/iters %d", i, got[i].Seq, got[i].Iters, wantSeq)
		}
	}
}

// TestConvRecorderJSON: the JSON export round-trips and carries the
// total/capacity envelope.
func TestConvRecorderJSON(t *testing.T) {
	fake := fakeClk()
	c := NewConvRecorder(2, fake, nil)
	for i := 1; i <= 3; i++ {
		record(c, fake, "clientserver", 10*i, time.Duration(i)*time.Millisecond)
	}
	var b strings.Builder
	if err := c.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Total    int          `json:"total"`
		Capacity int          `json:"capacity"`
		Traces   []SolveTrace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.Total != 3 || doc.Capacity != 2 || len(doc.Traces) != 2 {
		t.Errorf("envelope = total %d cap %d traces %d, want 3/2/2", doc.Total, doc.Capacity, len(doc.Traces))
	}
	if doc.Traces[0].Seq != 2 || doc.Traces[1].Seq != 3 {
		t.Errorf("trace seqs = %d,%d, want 2,3", doc.Traces[0].Seq, doc.Traces[1].Seq)
	}
	if doc.Traces[1].WallUS != 3000 {
		t.Errorf("trace[1].WallUS = %d, want 3000", doc.Traces[1].WallUS)
	}
}

// TestConvRecorderCSV: header plus one row per retained trace.
func TestConvRecorderCSV(t *testing.T) {
	fake := fakeClk()
	c := NewConvRecorder(4, fake, nil)
	record(c, fake, "mva", 42, 5*time.Microsecond)
	done := c.BeginSolve("general")
	fake.Advance(time.Microsecond)
	done(SolveStats{Iters: 1, Residual: 0.5, Err: "diverged"})
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != "seq,solver,iters,residual,converged,guard_trips,max_util,wall_us,err" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[1] != "1,mva,42,1e-12,true,0,0,5," {
		t.Errorf("CSV row 1 = %q", lines[1])
	}
	if lines[2] != "2,general,1,0.5,false,0,0,1,diverged" {
		t.Errorf("CSV row 2 = %q", lines[2])
	}
}

// TestConvRecorderWriteFile: extension picks the format.
func TestConvRecorderWriteFile(t *testing.T) {
	fake := fakeClk()
	c := NewConvRecorder(4, fake, nil)
	record(c, fake, "alltoall", 9, time.Microsecond)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		prefix string
	}{
		{dir + "/trace.json", "{"},
		{dir + "/trace.csv", "seq,"},
	} {
		if err := c.WriteFile(tc.name); err != nil {
			t.Fatalf("WriteFile(%s): %v", tc.name, err)
		}
		data := readFile(t, tc.name)
		if !strings.HasPrefix(data, tc.prefix) {
			t.Errorf("%s starts %q, want prefix %q", tc.name, data[:min(len(data), 20)], tc.prefix)
		}
	}
}

// TestConvRecorderMetrics: with a registry attached, solves mirror into
// the per-solver counters and histograms.
func TestConvRecorderMetrics(t *testing.T) {
	fake := fakeClk()
	reg := NewRegistry()
	c := NewConvRecorder(8, fake, reg)
	record(c, fake, "alltoall", 20, 10*time.Microsecond)
	record(c, fake, "alltoall", 30, 10*time.Microsecond)
	done := c.BeginSolve("alltoall")
	done(SolveStats{Iters: 5, GuardTrips: 3, Err: "saturated"})

	labels := Labels{"solver": "alltoall"}
	if got := reg.Counter("lopc_solves_total", "", labels).Value(); got != 3 {
		t.Errorf("solves_total = %d, want 3", got)
	}
	if got := reg.Counter("lopc_solve_errors_total", "", labels).Value(); got != 1 {
		t.Errorf("solve_errors_total = %d, want 1", got)
	}
	if got := reg.Counter("lopc_solve_guard_trips_total", "", labels).Value(); got != 3 {
		t.Errorf("guard_trips_total = %d, want 3", got)
	}
	hs := reg.Histogram("lopc_solve_iterations", "", labels, nil).Snapshot()
	if hs.Count != 3 || hs.Sum != 55 {
		t.Errorf("iterations histogram count %d sum %v, want 3 and 55", hs.Count, hs.Sum)
	}
}

// uncachedMirror is the registry mirroring of one solve as ConvRecorder
// did it before caching instrument handles: every solve resolves every
// instrument by name and labels. It is the reference the cached
// recorder's exposition must match byte for byte.
func uncachedMirror(reg *Registry, solver string, s SolveStats, wallUS int64) {
	labels := Labels{"solver": solver}
	reg.Counter("lopc_solves_total", "completed AMVA fixed-point solves", labels).Inc()
	if s.Err != "" {
		reg.Counter("lopc_solve_errors_total", "solves that returned an error", labels).Inc()
	}
	if s.GuardTrips > 0 {
		reg.Counter("lopc_solve_guard_trips_total", "iterations pushed back or clamped by a feasibility guard", labels).Add(int64(s.GuardTrips))
	}
	reg.Histogram("lopc_solve_iterations", "fixed-point iterations per solve", labels, iterBuckets).Observe(float64(s.Iters))
	reg.Histogram("lopc_solve_wall_us", "solve wall time in microseconds", labels, wallBuckets).Observe(float64(wallUS))
}

// TestConvRecorderExpositionMatchesUncached scripts solves — clean
// ones, then each solver's first guard trip and first error — and
// checks after every solve that the cached recorder's Prometheus
// exposition is byte-identical to the uncached reference, and that the
// error and guard-trip series appear only with their first occurrence.
func TestConvRecorderExpositionMatchesUncached(t *testing.T) {
	script := []struct {
		solver string
		stats  SolveStats
		wall   time.Duration
	}{
		{"alltoall", SolveStats{Iters: 20, Residual: 1e-11, Converged: true, MaxUtil: 0.4}, 3 * time.Microsecond},
		{"alltoall", SolveStats{Iters: 17, Residual: 1e-11, Converged: true, MaxUtil: 0.5}, 2 * time.Microsecond},
		{"clientserver", SolveStats{Iters: 9, Converged: true}, time.Microsecond},
		{"lock", SolveStats{Iters: 30, Converged: true, GuardTrips: 2}, 4 * time.Microsecond},
		{"alltoall", SolveStats{Iters: 25, Converged: true, GuardTrips: 1}, 5 * time.Microsecond},
		{"lockfree", SolveStats{Iters: 100000, GuardTrips: 7, Err: "core: lock-free fixed point: numeric: iteration did not converge"}, 9 * time.Millisecond},
		{"clientserver", SolveStats{Iters: 3, Err: "core: server utilization 1.5 >= 1 at Rs=2"}, time.Microsecond},
		{"alltoall", SolveStats{Iters: 19, Converged: true}, 3 * time.Microsecond},
		{"lockfree", SolveStats{Iters: 12, Converged: true}, 2 * time.Microsecond},
		{"clientserver", SolveStats{Iters: 4, GuardTrips: 3, Err: "core: server utilization 2 >= 1 at Rs=1"}, time.Microsecond},
	}
	fake := fakeClk()
	reg, ref := NewRegistry(), NewRegistry()
	c := NewConvRecorder(4, fake, reg)
	seenErr, seenGuard := false, false
	for i, step := range script {
		done := c.BeginSolve(step.solver)
		fake.Advance(step.wall)
		done(step.stats)
		uncachedMirror(ref, step.solver, step.stats, step.wall.Microseconds())
		seenErr = seenErr || step.stats.Err != ""
		seenGuard = seenGuard || step.stats.GuardTrips > 0

		var got, want strings.Builder
		if err := reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.WritePrometheus(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("after solve %d (%s %+v) exposition differs:\ngot:\n%s\nwant:\n%s", i+1, step.solver, step.stats, got.String(), want.String())
		}
		if has := strings.Contains(got.String(), "lopc_solve_errors_total"); has != seenErr {
			t.Errorf("after solve %d: errors series present = %v, want %v", i+1, has, seenErr)
		}
		if has := strings.Contains(got.String(), "lopc_solve_guard_trips_total"); has != seenGuard {
			t.Errorf("after solve %d: guard-trip series present = %v, want %v", i+1, has, seenGuard)
		}
	}
}
