package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakguard"
	"repro/internal/trace"
)

// TestMapOrdersResultsBySubmission: results land at their task index
// for every worker count, including worker counts far above the task
// count.
func TestMapOrdersResultsBySubmission(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 8, 64} {
		got, err := Map(50, Options{Jobs: jobs}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 50 {
			t.Fatalf("jobs=%d: %d results, want 50", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestMapDeterministicAcrossJobs: the whole result slice is identical
// for -j 1 and -j 8 when tasks are pure functions of their index — the
// engine's core guarantee.
func TestMapDeterministicAcrossJobs(t *testing.T) {
	task := func(i int) (string, error) {
		return fmt.Sprintf("task-%d:%d", i, i*31), nil
	}
	seq, err := Map(97, Options{Jobs: 1}, task)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(97, Options{Jobs: 8}, task)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result %d differs: sequential %q, parallel %q", i, seq[i], par[i])
		}
	}
}

// TestMapEmptyAndNegative: zero tasks succeed with no results; a
// negative count is an error, not a hang.
func TestMapEmptyAndNegative(t *testing.T) {
	got, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("Map(0) = %v, %v; want nil, nil", got, err)
	}
	if _, err := Map(-1, Options{}, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Error("Map(-1) did not error")
	}
}

// TestMapReturnsLowestIndexedError: when several tasks fail, Map
// reports the one a sequential run would have hit first, for every
// worker count.
func TestMapReturnsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4, 16} {
		_, err := Map(40, Options{Jobs: jobs}, func(i int) (int, error) {
			if i == 7 || i == 23 {
				return 0, fmt.Errorf("%w at %d", boom, i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: no error", jobs)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: error %v does not wrap task error", jobs, err)
		}
		if !strings.HasPrefix(err.Error(), "task 7:") {
			t.Errorf("jobs=%d: error %q, want the lowest-indexed failure (task 7)", jobs, err)
		}
	}
}

// TestMapStopsClaimingAfterError: after a failure the pool stops
// claiming fresh tasks, so a long queue behind an early error does not
// all execute.
func TestMapStopsClaimingAfterError(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	_, err := Map(n, Options{Jobs: 2}, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	// Workers already past the claim check may each run one more task;
	// anything close to n means cancellation is broken.
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d tasks ran after an index-0 failure", got, n)
	}
}

// TestMapCancelStress hammers the early-error path: many tiny tasks,
// many rounds, failures at varying indices, all worker counts. Run
// under -race this doubles as the engine's race regression test.
func TestMapCancelStress(t *testing.T) {
	for round := 0; round < 30; round++ {
		failAt := round * 7 % 100
		jobs := 1 + round%8
		_, err := Map(100, Options{Jobs: jobs}, func(i int) (int, error) {
			if i >= failAt {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("round %d: no error", round)
		}
		want := fmt.Sprintf("task %d:", failAt)
		if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("round %d (jobs=%d): error %q, want prefix %q", round, jobs, err, want)
		}
	}
}

// TestMapErrorIdentityUnderRacingFailures: when a slow low-indexed
// failure races many instant high-indexed ones, the reported error must
// still be the lowest index. This guards the claim rule that tasks
// below the lowest known failure keep running: a worker that claimed a
// low index just as a high index failed used to abandon it, making the
// returned error depend on the schedule.
func TestMapErrorIdentityUnderRacingFailures(t *testing.T) {
	for round := 0; round < 50; round++ {
		jobs := 2 + round%7
		_, err := Map(64, Options{Jobs: jobs}, func(i int) (int, error) {
			switch {
			case i == 5:
				// The lowest failure reports last.
				time.Sleep(time.Duration(round%5) * 10 * time.Microsecond)
				return 0, fmt.Errorf("fail %d", i)
			case i >= 8:
				return 0, fmt.Errorf("fail %d", i)
			default:
				return i, nil
			}
		})
		if err == nil {
			t.Fatalf("round %d: no error", round)
		}
		if !strings.HasPrefix(err.Error(), "task 5:") {
			t.Fatalf("round %d (jobs=%d): error %q, want the lowest-indexed failure (task 5)", round, jobs, err)
		}
	}
}

// TestDo: the no-result wrapper runs every task and propagates errors.
func TestDo(t *testing.T) {
	var sum atomic.Int64
	if err := Do(100, Options{Jobs: 4}, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	if err := Do(3, Options{}, func(i int) error { return errors.New("x") }); err == nil {
		t.Error("Do swallowed the task error")
	}
}

// TestProgressReporting: the final progress line and the closing
// summary always print and carry the done/total count; intermediate
// lines are throttled.
func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	_, err := Map(20, Options{Jobs: 4, Progress: &buf, Label: "sweep", Every: time.Hour}, func(i int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweep: 20/20 done") {
		t.Errorf("missing final progress line, got %q", out)
	}
	if !strings.Contains(out, "sweep: summary: 20/20 tasks in ") {
		t.Errorf("missing summary line, got %q", out)
	}
	// With a one-hour throttle only the final (unthrottled) progress line
	// and the summary print.
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("throttle ignored: %d lines, want 2:\n%s", n, out)
	}
}

// TestRunSummary: the summary line is deterministic under a fake clock
// and includes throughput.
func TestRunSummary(t *testing.T) {
	var buf bytes.Buffer
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p := newProgress(Options{Progress: &buf, Label: "exp", Every: time.Hour, Clock: fake}, 8)
	fake.Advance(4 * time.Second)
	p.summary(8)
	if got, want := buf.String(), "exp: summary: 8/8 tasks in 4s (2.0 tasks/s)\n"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestRunSummaryZeroElapsed: a run finishing within the clock's
// resolution omits the throughput rather than dividing by zero.
func TestRunSummaryZeroElapsed(t *testing.T) {
	var buf bytes.Buffer
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p := newProgress(Options{Progress: &buf, Label: "x", Clock: fake}, 2)
	p.summary(2)
	if got, want := buf.String(), "x: summary: 2/2 tasks in 0s\n"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestProgressFakeClock: with an injected clock.Fake every progress
// line — throttling decisions, elapsed, ETA — is exactly reproducible.
func TestProgressFakeClock(t *testing.T) {
	var buf bytes.Buffer
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p := newProgress(Options{Progress: &buf, Label: "fit", Every: time.Second, Clock: fake}, 4)

	p.report(1) // same instant as start: throttled
	fake.Advance(2 * time.Second)
	p.report(2) // window open: prints with elapsed and ETA
	fake.Advance(500 * time.Millisecond)
	p.report(3) // 500ms since last line: throttled
	fake.Advance(1500 * time.Millisecond)
	p.report(4) // final line always prints, no ETA

	want := "fit: 2/4 done, elapsed 2s, eta 2s\n" +
		"fit: 4/4 done, elapsed 4s\n"
	if got := buf.String(); got != want {
		t.Errorf("progress output:\n got %q\nwant %q", got, want)
	}
}

// TestProgressMonotonic: report calls can arrive out of order (the
// done counter is incremented before the call, and goroutines race to
// the lock), but a stale lower count must never print after a higher
// one — previously a late report(1) after report(2) produced a
// backwards-running progress line.
func TestProgressMonotonic(t *testing.T) {
	var buf bytes.Buffer
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p := newProgress(Options{Progress: &buf, Label: "run", Every: time.Second, Clock: fake}, 3)

	fake.Advance(2 * time.Second)
	p.report(2)
	fake.Advance(2 * time.Second)
	p.report(1) // a slower worker's count arriving late: suppressed
	fake.Advance(2 * time.Second)
	p.report(3)

	want := "run: 2/3 done, elapsed 2s, eta 1s\n" +
		"run: 3/3 done, elapsed 6s\n"
	if got := buf.String(); got != want {
		t.Errorf("progress output:\n got %q\nwant %q", got, want)
	}
}

// TestProgressETA: a mid-run report includes an ETA once at least one
// task has finished.
func TestProgressETA(t *testing.T) {
	p := newProgress(Options{Progress: &bytes.Buffer{}, Every: time.Second}, 10)
	p.last = p.last.Add(-time.Minute) // force the throttle window open
	p.report(5)
	out := p.w.(*bytes.Buffer).String()
	if !strings.Contains(out, "eta") {
		t.Errorf("mid-run progress line has no ETA: %q", out)
	}
}

// TestMapRecordsJobSpans: with Options.Spans set, every task execution
// becomes one span, and span collection never changes results.
func TestMapRecordsJobSpans(t *testing.T) {
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	spans := trace.NewSpans(fake)
	got, err := Map(10, Options{Jobs: 4, Label: "sweep", Spans: spans}, func(i int) (int, error) {
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*3)
		}
	}
	if spans.Len() != 10 {
		t.Errorf("recorded %d spans, want 10", spans.Len())
	}
	var buf bytes.Buffer
	if err := spans.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	for i := 0; i < 10; i++ {
		if want := fmt.Sprintf("sweep #%d", i); !strings.Contains(out, want) {
			t.Errorf("trace JSON missing span %q", want)
		}
	}
	if !strings.Contains(out, `"ph":"X"`) || !strings.Contains(out, `"process_name"`) {
		t.Errorf("trace JSON missing complete-slice events or metadata:\n%s", out)
	}
}

// TestMapCtxCanceledBeforeStart: a context canceled up front runs no
// tasks and reports the cancellation.
func TestMapCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 100, Options{Jobs: 4}, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran after pre-canceled context", ran.Load())
	}
}

// TestMapCtxStopsClaimingOnCancel: cancellation mid-run stops workers
// from claiming further tasks; in-flight tasks finish.
func TestMapCtxStopsClaimingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 1000, Options{Jobs: 2}, func(i int) (int, error) {
		ran.Add(1)
		if i < 2 {
			cancel()
			<-ctx.Done() // hold the worker until cancellation is visible
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Both workers saw the first two indexes block until cancel, so at
	// most a couple of extra claims can slip in before the check.
	if n := ran.Load(); n > 6 {
		t.Errorf("%d tasks ran after cancel, want a small handful", n)
	}
}

// TestMapCtxCompletedRunIgnoresLateCancel: a run whose tasks all
// completed returns its results even if the context is canceled at the
// very end.
func TestMapCtxCompletedRunIgnoresLateCancel(t *testing.T) {
	ctx := context.Background()
	got, err := MapCtx(ctx, 10, Options{Jobs: 3}, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("MapCtx = (%v, %v), want 10 results", got, err)
	}
}

// TestMapCtxTaskErrorBeatsCancel: when a task fails and the context is
// canceled, the deterministic lowest-index task error wins.
func TestMapCtxTaskErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 8, Options{Jobs: 1}, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Errorf("err = %v, want task-3 identity", err)
	}
}

// TestDoCtxDeadline: DoCtx respects a context deadline.
func TestDoCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := DoCtx(ctx, 1_000_000, Options{Jobs: 2}, func(i int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMapJoinsWorkers: Map's workers have all exited by the time it
// returns, on the success, task-error and cancel paths alike.
func TestMapJoinsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, err := Map(100, Options{Jobs: 8}, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	leakguard.Settle(t, base, "a completed Map")

	boom := errors.New("boom")
	if _, err := Map(100, Options{Jobs: 8}, func(i int) (int, error) {
		if i == 10 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	leakguard.Settle(t, base, "a failed Map")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := MapCtx(ctx, 1000, Options{Jobs: 8}, func(i int) (int, error) {
		if i == 5 {
			cancel()
		}
		<-ctx.Done()
		return i, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	leakguard.Settle(t, base, "a canceled MapCtx")
}
