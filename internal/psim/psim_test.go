package psim_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/leakguard"
	"repro/internal/obs"
	"repro/internal/psim"
)

// toyLP is an adversarial traffic generator for the determinism tests:
// every handled event mutates a running hash, draws from the LP's
// random stream, and schedules both self-events (arbitrarily small
// delays) and cross-LP events (delays at the lookahead bound and up).
// Because the sends depend on the hash and the stream, any divergence
// in commit order or rollback replay snowballs into a different trace
// rather than hiding.
type toyLP struct {
	n         int
	lookahead float64
	hash      uint64
	handled   int
}

func (l *toyLP) Start(c *psim.Ctx) {
	// Seed traffic: one self-event and one cross event per LP.
	c.Send(c.Self(), 0.25*c.Rand().Float64(), 0, psim.Msg{})
	dst := c.Rand().Intn(l.n)
	c.Send(dst, l.lookahead*(1+c.Rand().Float64()), 1, psim.Msg{})
}

func (l *toyLP) Handle(c *psim.Ctx, ev *psim.Event) {
	l.handled++
	l.hash = l.hash*0x9e3779b97f4a7c15 + math.Float64bits(ev.Time) ^ uint64(ev.Src)<<32 ^ ev.Seq
	r := c.Rand()
	// Exactly one send per event keeps the population constant (the
	// run is bounded by Until, not by traffic dying out or exploding).
	// Branch on state so a mis-replayed rollback changes the traffic.
	if (l.hash^r.Uint64())&1 == 0 {
		c.Send(c.Self(), 0.3*r.Float64(), 0, psim.Msg{U0: l.hash})
		return
	}
	dst := r.Intn(l.n)
	c.Send(dst, l.lookahead*(1+2*r.Float64()), 1, psim.Msg{U0: l.hash})
}

func (l *toyLP) Save(reuse any) any {
	s, _ := reuse.(*toyLP)
	if s == nil {
		s = new(toyLP)
	}
	*s = *l
	return s
}

func (l *toyLP) Restore(snapshot any) {
	*l = *snapshot.(*toyLP)
}

func toyLPs(n int, lookahead float64) []psim.LP {
	lps := make([]psim.LP, n)
	for i := range lps {
		lps[i] = &toyLP{n: n, lookahead: lookahead}
	}
	return lps
}

// runToy runs the toy model under one core configuration and returns
// the trace bytes and stats.
func runToy(t *testing.T, n int, sync psim.Sync, jobs int, window float64) ([]byte, psim.RunStats) {
	t.Helper()
	b, st, _ := runToyWorkers(t, n, sync, jobs, window, 0)
	return b, st
}

// runToyWorkers is runToy through psim.Run when maxWorkers is 0, and
// otherwise with the worker count capped at maxWorkers instead of
// GOMAXPROCS, so jobs workers run whatever the host; it also returns
// the barrier park count.
func runToyWorkers(t *testing.T, n int, sync psim.Sync, jobs int, window float64, maxWorkers int) ([]byte, psim.RunStats, int64) {
	t.Helper()
	var tr psim.Trace
	cfg := psim.Config{
		LPs:       toyLPs(n, 1.0),
		Lookahead: 1.0,
		Sync:      sync,
		Jobs:      jobs,
		Seed:      42,
		Until:     40,
		Window:    window,
		Trace:     &tr,
	}
	var st psim.RunStats
	var parks int64
	var err error
	if maxWorkers == 0 {
		st, err = psim.Run(cfg)
	} else {
		st, parks, err = psim.RunWorkers(cfg, maxWorkers)
	}
	if err != nil {
		t.Fatalf("Run(%v, jobs=%d): %v", sync, jobs, err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if int(st.Events) != tr.Len() {
		t.Fatalf("stats.Events=%d but trace has %d records", st.Events, tr.Len())
	}
	return buf.Bytes(), st, parks
}

// TestDeterminismContract is the tentpole check: for a fixed seed,
// every core at every job count commits a byte-identical event trace
// and identical committed statistics, and a parallel core's rounds and
// rollbacks do not depend on how many workers ran it.
//
// The "w" cases run exactly that many workers whatever GOMAXPROCS is
// (psim.Run would cap them), so blocks of unequal size (n not divisible
// by the worker count) and more workers than LPs are covered on any
// host, and workers beyond GOMAXPROCS or the CPU count go through the
// barrier's park path. The "gomaxprocs1" cases run eight workers on
// one processor, where every barrier wait must park.
func TestDeterminismContract(t *testing.T) {
	for _, n := range []int{2, 7, 32} {
		want, wantSt := runToy(t, n, psim.SyncSeq, 1, 0)
		if wantSt.Events == 0 {
			t.Fatalf("n=%d: sequential run committed no events", n)
		}
		cases := []struct {
			name    string
			sync    psim.Sync
			jobs    int
			window  float64
			workers int  // 0: psim.Run's GOMAXPROCS cap; else RunWorkers' cap
			oneProc bool // run under GOMAXPROCS(1)
		}{
			{"cons/j1", psim.SyncCons, 1, 0, 0, false},
			{"cons/j8", psim.SyncCons, 8, 0, 0, false},
			{"opt/j1", psim.SyncOpt, 1, 0, 0, false},
			{"opt/j8", psim.SyncOpt, 8, 0, 0, false},
			{"opt/j8/window2", psim.SyncOpt, 8, 2, 0, false},
			{"opt/j8/window64", psim.SyncOpt, 8, 64, 0, false},
			{"cons/w2", psim.SyncCons, 2, 0, 2, false},
			{"cons/w3", psim.SyncCons, 3, 0, 3, false},
			{"cons/w8", psim.SyncCons, 8, 0, 8, false},
			{"opt/w2", psim.SyncOpt, 2, 0, 2, false},
			{"opt/w3", psim.SyncOpt, 3, 0, 3, false},
			{"opt/w8", psim.SyncOpt, 8, 0, 8, false},
			{"opt/w3/window64", psim.SyncOpt, 3, 64, 3, false},
			{"cons/w8/gomaxprocs1", psim.SyncCons, 8, 0, 8, true},
			{"opt/w8/gomaxprocs1", psim.SyncOpt, 8, 0, 8, true},
		}
		for _, tc := range cases {
			got, gotSt, parks := func() ([]byte, psim.RunStats, int64) {
				if tc.oneProc {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				}
				return runToyWorkers(t, n, tc.sync, tc.jobs, tc.window, tc.workers)
			}()
			if tc.oneProc && parks == 0 {
				t.Errorf("n=%d %s: workers on one processor never parked", n, tc.name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("n=%d %s: trace differs from sequential oracle (%d vs %d bytes)",
					n, tc.name, len(got), len(want))
				continue
			}
			if gotSt.Events != wantSt.Events || !reflect.DeepEqual(gotSt.PerLP, wantSt.PerLP) || gotSt.MaxTime != wantSt.MaxTime {
				t.Errorf("n=%d %s: committed stats diverge: got {Events:%d MaxTime:%v} want {Events:%d MaxTime:%v}",
					n, tc.name, gotSt.Events, gotSt.MaxTime, wantSt.Events, wantSt.MaxTime)
			}
			_, oneSt := runToy(t, n, tc.sync, 1, tc.window)
			if gotSt.Rounds != oneSt.Rounds || gotSt.Rollbacks != oneSt.Rollbacks || gotSt.RolledBack != oneSt.RolledBack {
				t.Errorf("n=%d %s: rounds/rollbacks/rolled-back %d/%d/%d, want the jobs=1 run's %d/%d/%d",
					n, tc.name, gotSt.Rounds, gotSt.Rollbacks, gotSt.RolledBack, oneSt.Rounds, oneSt.Rollbacks, oneSt.RolledBack)
			}
		}
	}
}

// tieLP is a two-token ping-pong between LPs 0 and n/2 — in different
// blocks at every worker count the test uses — so both hold the
// minimum head at every whole time, and each block alone sees a unique
// holder. Each token delivery passes the token on one lookahead later
// and schedules a tick a quarter past the next token's arrival; a tick
// sends one event to the neighbour. An LP that wrongly took the unique
// holder's looser bound would run its tick before the token arriving
// just ahead of it, and its sends would take different sequence numbers.
type tieLP struct{}

func (tieLP) Start(c *psim.Ctx) {
	if c.Self()%(c.N()/2) == 0 {
		c.Send(c.Self(), 0, 0, psim.Msg{})
	}
}

func (tieLP) Handle(c *psim.Ctx, ev *psim.Event) {
	switch ev.Kind {
	case 0: // token
		c.Send((c.Self()+c.N()/2)%c.N(), 1, 0, psim.Msg{})
		c.Send(c.Self(), 1.25, 1, psim.Msg{})
	case 1: // tick
		c.Send((c.Self()+1)%c.N(), 1, 2, psim.Msg{})
	}
}

func (tieLP) Save(any) any { return nil }
func (tieLP) Restore(any)  {}

// TestTiedHeadsAcrossBlocks checks the merge of the workers' head
// summaries: with the minimum head tied across blocks, every LP gets
// the tight bound, so the trace and the round count are those of one
// worker scanning every head.
func TestTiedHeadsAcrossBlocks(t *testing.T) {
	const n = 12
	run := func(sync psim.Sync, workers int) ([]byte, psim.RunStats) {
		lps := make([]psim.LP, n)
		for i := range lps {
			lps[i] = tieLP{}
		}
		var tr psim.Trace
		st, _, err := psim.RunWorkers(psim.Config{
			LPs: lps, Lookahead: 1, Sync: sync, Jobs: workers, Until: 50, Trace: &tr,
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	want, _ := run(psim.SyncSeq, 1)
	_, one := run(psim.SyncCons, 1)
	for _, workers := range []int{2, 3, 4, 8} {
		got, st := run(psim.SyncCons, workers)
		if !bytes.Equal(got, want) {
			t.Errorf("cons/w%d: trace differs from sequential oracle", workers)
		}
		if st.Rounds != one.Rounds {
			t.Errorf("cons/w%d: %d rounds, want the one-worker run's %d", workers, st.Rounds, one.Rounds)
		}
	}
}

// histLP keeps a sliding history of its deliveries in a slice, and its
// sends depend on that history. Its snapshots therefore own a backing
// array that Save overwrites in place when the kernel recycles it: if
// the kernel ever handed back a snapshot a rollback could still
// restore, the restored history — and from there the trace — would
// diverge. saves and reused count outside the snapshot, per LP.
type histLP struct {
	st           histState
	saves, reuse int
}

type histState struct {
	n    int
	hist []uint64
}

func (l *histLP) Start(c *psim.Ctx) {
	c.Send(c.Self(), 0.25*c.Rand().Float64(), 0, psim.Msg{})
	c.Send(c.Rand().Intn(l.st.n), 1+c.Rand().Float64(), 1, psim.Msg{})
}

func (l *histLP) Handle(c *psim.Ctx, ev *psim.Event) {
	s := &l.st
	if len(s.hist) == 6 {
		copy(s.hist, s.hist[1:])
		s.hist = s.hist[:5]
	}
	s.hist = append(s.hist, math.Float64bits(ev.Time)^uint64(ev.Src)<<40^ev.Seq)
	var sum uint64
	for _, h := range s.hist {
		sum = sum*31 + h
	}
	r := c.Rand()
	if (sum^r.Uint64())&3 == 0 {
		c.Send(c.Self(), 0.3*r.Float64(), 0, psim.Msg{})
		return
	}
	c.Send(int(sum%uint64(s.n)), 1+2*r.Float64(), 1, psim.Msg{})
}

func (l *histLP) Save(reuse any) any {
	l.saves++
	s, _ := reuse.(*histState)
	if s == nil {
		s = new(histState)
	} else {
		l.reuse++
	}
	hist := s.hist[:0]
	*s = l.st
	s.hist = append(hist, l.st.hist...)
	return s
}

func (l *histLP) Restore(snapshot any) {
	s := snapshot.(*histState)
	hist := l.st.hist[:0]
	l.st = *s
	l.st.hist = append(hist, s.hist...)
}

// TestSnapshotRecycling checks Save's reuse contract: under a wide
// window the optimistic core rolls back after fossil collection has
// returned snapshots for reuse, and the trace still equals the
// sequential oracle's byte for byte.
func TestSnapshotRecycling(t *testing.T) {
	const n = 16
	run := func(sync psim.Sync, workers int) ([]byte, psim.RunStats, []*histLP) {
		lps := make([]psim.LP, n)
		hs := make([]*histLP, n)
		for i := range lps {
			hs[i] = &histLP{st: histState{n: n}}
			lps[i] = hs[i]
		}
		var tr psim.Trace
		st, _, err := psim.RunWorkers(psim.Config{
			LPs: lps, Lookahead: 1, Sync: sync, Jobs: workers, Seed: 9, Until: 60, Window: 32, Trace: &tr,
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st, hs
	}
	want, _, _ := run(psim.SyncSeq, 1)
	for _, workers := range []int{1, 3} {
		got, st, hs := run(psim.SyncOpt, workers)
		if !bytes.Equal(got, want) {
			t.Errorf("opt/w%d: trace diverges from sequential oracle", workers)
		}
		var saves, reuse int
		for _, h := range hs {
			saves += h.saves
			reuse += h.reuse
		}
		if st.Rollbacks == 0 || reuse == 0 {
			t.Fatalf("opt/w%d: %d rollbacks, %d of %d saves reused; the test needs both", workers, st.Rollbacks, reuse, saves)
		}
		t.Logf("opt/w%d: %d rollbacks, %d of %d saves reused a snapshot", workers, st.Rollbacks, reuse, saves)
	}
}

// TestOptimisticRollsBackAndStillMatches pins down that the optimistic
// core is actually exercising its rollback machinery on this workload —
// a rollback-free run would make the determinism check vacuous — and
// that rolled-back work leaves no trace divergence.
func TestOptimisticRollsBackAndStillMatches(t *testing.T) {
	want, _ := runToy(t, 16, psim.SyncSeq, 1, 0)
	// A wide window invites deep speculation and thus stragglers.
	got, st := runToy(t, 16, psim.SyncOpt, 8, 32)
	if st.Rollbacks == 0 {
		t.Fatalf("optimistic run with window 32 had no rollbacks; the workload is not stressing Time Warp")
	}
	if st.RolledBack < st.Rollbacks {
		t.Fatalf("RolledBack=%d < Rollbacks=%d: each episode must undo at least one event", st.RolledBack, st.Rollbacks)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("optimistic trace diverges from sequential oracle despite %d rollbacks", st.Rollbacks)
	}
}

// TestConservativeRoundsCounted checks the null-message-equivalent
// round counter moves under the conservative core and stays zero under
// the sequential one.
func TestConservativeRoundsCounted(t *testing.T) {
	_, seqSt := runToy(t, 8, psim.SyncSeq, 1, 0)
	if seqSt.Rounds != 0 {
		t.Errorf("sequential core reported %d sync rounds; want 0", seqSt.Rounds)
	}
	_, consSt := runToy(t, 8, psim.SyncCons, 4, 0)
	if consSt.Rounds == 0 {
		t.Errorf("conservative core reported 0 sync rounds")
	}
	if consSt.Rollbacks != 0 || consSt.RolledBack != 0 {
		t.Errorf("conservative core reported rollbacks: %+v", consSt)
	}
}

// orderLP records the order its events are delivered in.
type orderLP struct {
	got *[]psim.Event
}

func (l *orderLP) Start(*psim.Ctx)                    {}
func (l *orderLP) Handle(_ *psim.Ctx, ev *psim.Event) { *l.got = append(*l.got, *ev) }
func (l *orderLP) Save(any) any                       { return nil }
func (l *orderLP) Restore(any)                        {}

// seederLP schedules a fixed fan of same-timestamp events from Start
// so the tie-break order (Time, Dst, Src, Seq) is observable.
type seederLP struct {
	orderLP
	n int
}

func (l *seederLP) Start(c *psim.Ctx) {
	// Two sends to every LP (including self), all arriving at t=1 or
	// t=2, issued in descending destination order so delivery order
	// cannot accidentally equal send order.
	for dst := l.n - 1; dst >= 0; dst-- {
		delay := 1.0
		if dst == c.Self() {
			// Self-sends are exempt from the lookahead bound but share
			// the arrival instant, joining the tie.
			delay = 1.0
		}
		c.Send(dst, delay+1, 2, psim.Msg{})
		c.Send(dst, delay, 1, psim.Msg{})
	}
}

// TestTieBreakOrder verifies same-timestamp events commit in
// (Dst, Src, Seq) order on every core.
func TestTieBreakOrder(t *testing.T) {
	for _, sync := range []psim.Sync{psim.SyncSeq, psim.SyncCons, psim.SyncOpt} {
		n := 3
		lps := make([]psim.LP, n)
		for i := range lps {
			// Each LP records into its own slice: LPs may run on
			// different workers and must not share state.
			s := &seederLP{n: n}
			s.got = new([]psim.Event)
			lps[i] = s
		}
		var tr psim.Trace
		if _, err := psim.Run(psim.Config{
			LPs: lps, Lookahead: 1, Sync: sync, Jobs: 8, Seed: 1, Until: 10, Trace: &tr,
		}); err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		recs := tr.Records()
		if len(recs) != 2*n*n {
			t.Fatalf("%v: got %d records, want %d", sync, len(recs), 2*n*n)
		}
		for i := 1; i < len(recs); i++ {
			a, b := recs[i-1], recs[i]
			if b.Time < a.Time ||
				(b.Time == a.Time && (b.Dst < a.Dst || (b.Dst == a.Dst && (b.Src < a.Src || (b.Src == a.Src && b.Seq < a.Seq))))) {
				t.Fatalf("%v: records %d,%d out of canonical order: %+v then %+v", sync, i-1, i, a, b)
			}
		}
	}
}

// lateLP violates the lookahead contract on its third event, with a
// send to LP dst.
type lateLP struct {
	orderLP
	dst   int
	count int
}

func (l *lateLP) Start(c *psim.Ctx) {
	c.Send(c.Self(), 0.1, 0, psim.Msg{})
}

func (l *lateLP) Handle(c *psim.Ctx, ev *psim.Event) {
	l.count++
	if l.count == 3 {
		c.Send(l.dst, 0.5, 0, psim.Msg{}) // below the declared lookahead of 1
		return
	}
	c.Send(c.Self(), 0.1, 0, psim.Msg{})
}

// TestSendContractEnforced checks the kernel panics on a cross-LP send
// below the declared lookahead — in the sequential oracle too, so the
// bound cannot silently hold only where it is needed. Under the
// parallel cores the violating LP is the last of four, in worker 1's
// block, so the panic starts on a worker goroutine and must reach the
// caller with its value intact.
func TestSendContractEnforced(t *testing.T) {
	cases := []struct {
		name string
		sync psim.Sync
		lps  []psim.LP
	}{
		{"seq", psim.SyncSeq, []psim.LP{&lateLP{dst: 1}, &orderLP{got: new([]psim.Event)}}},
		{"cons/j2", psim.SyncCons, lateLast()},
		{"opt/j2", psim.SyncOpt, lateLast()},
	}
	for _, tc := range cases {
		r := runRecover(func() {
			_, _, _ = psim.RunWorkers(psim.Config{LPs: tc.lps, Lookahead: 1, Sync: tc.sync, Jobs: 2, Until: 10}, 2)
		})
		if r == nil {
			t.Errorf("%s: send below lookahead did not panic", tc.name)
			continue
		}
		if msg, _ := r.(string); !strings.Contains(msg, "below the declared lookahead") {
			t.Errorf("%s: panic value %v, want the kernel's lookahead message", tc.name, r)
		}
	}
}

// lateLast returns four LPs whose last breaks the lookahead contract.
func lateLast() []psim.LP {
	lps := make([]psim.LP, 4)
	for i := range 3 {
		lps[i] = &orderLP{got: new([]psim.Event)}
	}
	lps[3] = &lateLP{dst: 0}
	return lps
}

// runRecover calls f and returns the value it panicked with, if any.
func runRecover(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// exitLP calls runtime.Goexit from its first event.
type exitLP struct{ orderLP }

func (exitLP) Start(c *psim.Ctx)             { c.Send(c.Self(), 1, 0, psim.Msg{}) }
func (exitLP) Handle(*psim.Ctx, *psim.Event) { runtime.Goexit() }

// TestWorkerGoexitReachesCaller checks that model code ending a worker
// goroutine with runtime.Goexit stops the run with a panic in the
// caller instead of leaving the other workers at a barrier forever.
func TestWorkerGoexitReachesCaller(t *testing.T) {
	lps := []psim.LP{&orderLP{got: new([]psim.Event)}, &exitLP{}}
	r := runRecover(func() {
		_, _, _ = psim.RunWorkers(psim.Config{LPs: lps, Lookahead: 1, Sync: psim.SyncCons, Jobs: 2, Until: 10}, 2)
	})
	if err, _ := r.(error); err == nil || !strings.Contains(err.Error(), "Goexit") {
		t.Fatalf("Run panicked with %v, want the worker-exit error", r)
	}
}

// TestNoWorkerOutlivesRun checks that Run joins its workers before it
// returns, normally or by panic.
func TestNoWorkerOutlivesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, sync := range []psim.Sync{psim.SyncCons, psim.SyncOpt} {
		runToyWorkers(t, 16, sync, 4, 0, 4)
		leakguard.Settle(t, base, sync.String()+" return")
		if runRecover(func() {
			_, _, _ = psim.RunWorkers(psim.Config{LPs: lateLast(), Lookahead: 1, Sync: sync, Jobs: 4, Until: 10}, 4)
		}) == nil {
			t.Fatalf("%v: send below lookahead did not panic", sync)
		}
		leakguard.Settle(t, base, sync.String()+" panic")
	}
}

// TestConfigValidation exercises Run's error paths.
func TestConfigValidation(t *testing.T) {
	ok := toyLPs(2, 1)
	cases := []struct {
		name string
		cfg  psim.Config
	}{
		{"no LPs", psim.Config{Lookahead: 1}},
		{"nil LP", psim.Config{LPs: []psim.LP{nil}, Lookahead: 1}},
		{"negative lookahead", psim.Config{LPs: ok, Lookahead: -1}},
		{"inf lookahead", psim.Config{LPs: ok, Lookahead: math.Inf(1)}},
		{"NaN until", psim.Config{LPs: ok, Lookahead: 1, Until: math.NaN()}},
		{"negative window", psim.Config{LPs: ok, Lookahead: 1, Window: -2}},
		{"bad sync", psim.Config{LPs: ok, Lookahead: 1, Sync: psim.Sync(9)}},
	}
	for _, tc := range cases {
		if _, err := psim.Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// TestWindowValidation: zero is the default window, 8× the lookahead,
// and a window that is negative, NaN or infinite — which would leave
// cascade rollbacks unbounded — is refused.
func TestWindowValidation(t *testing.T) {
	run := func(window float64) ([]byte, error) {
		var tr psim.Trace
		_, err := psim.Run(psim.Config{
			LPs: toyLPs(8, 1), Lookahead: 1, Sync: psim.SyncOpt, Jobs: 2,
			Seed: 42, Until: 40, Window: window, Trace: &tr,
		})
		var buf bytes.Buffer
		if err == nil {
			_, err = tr.WriteTo(&buf)
		}
		return buf.Bytes(), err
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := run(w); err == nil {
			t.Errorf("window %v: Run accepted it", w)
		}
	}
	def, err := run(0)
	if err != nil {
		t.Fatalf("window 0: %v", err)
	}
	eight, err := run(8)
	if err != nil {
		t.Fatalf("window 8: %v", err)
	}
	if !bytes.Equal(def, eight) || len(def) == 0 {
		t.Errorf("window 0 committed a different trace (%d bytes) than window 8 (%d bytes)", len(def), len(eight))
	}
}

// TestParseSync round-trips the CLI spellings.
func TestParseSync(t *testing.T) {
	for _, s := range []psim.Sync{psim.SyncSeq, psim.SyncCons, psim.SyncOpt} {
		got, err := psim.ParseSync(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSync(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := psim.ParseSync("timewarp"); err == nil {
		t.Errorf("ParseSync accepted unknown spelling")
	}
}

// TestMetricsPublished checks the obs counters receive the run totals.
func TestMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	m := psim.NewMetrics(reg)
	st, err := psim.Run(psim.Config{
		LPs: toyLPs(4, 1), Lookahead: 1, Sync: psim.SyncCons, Jobs: 2, Seed: 7, Until: 20, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Events.Value(); got != int64(st.Events) {
		t.Errorf("events counter = %d, want %d", got, st.Events)
	}
	if got := m.Rounds.Value(); got != int64(st.Rounds) {
		t.Errorf("rounds counter = %d, want %d", got, st.Rounds)
	}
}

// TestZeroLookaheadFallsBackToSeq checks the degenerate dispatch: a
// parallel core with no usable lookahead must run the sequential
// algorithm (no rounds) and still commit the same trace.
func TestZeroLookaheadFallsBackToSeq(t *testing.T) {
	run := func(sync psim.Sync) ([]byte, psim.RunStats) {
		var tr psim.Trace
		st, err := psim.Run(psim.Config{
			LPs: toyLPs(4, 0), Lookahead: 0, Sync: sync, Jobs: 8, Seed: 3, Until: 15, Trace: &tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr.WriteTo(&buf)
		return buf.Bytes(), st
	}
	want, _ := run(psim.SyncSeq)
	for _, sync := range []psim.Sync{psim.SyncCons, psim.SyncOpt} {
		got, st := run(sync)
		if st.Rounds != 0 {
			t.Errorf("%v with zero lookahead ran %d rounds; want sequential fallback", sync, st.Rounds)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v zero-lookahead trace diverges from sequential", sync)
		}
	}
}

// TestTraceFormat pins the WriteTo line format: exact hex floats keep
// equal traces equal bytes.
func TestTraceFormat(t *testing.T) {
	var tr psim.Trace
	if _, err := psim.Run(psim.Config{
		LPs:       []psim.LP{&seederLP{n: 1, orderLP: orderLP{got: new([]psim.Event)}}},
		Lookahead: 1, Until: 5, Trace: &tr,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned (%d, %v), buffer has %d bytes", n, err, buf.Len())
	}
	want := "0x1p+00 0 0 1 1\n0x1p+01 0 0 0 2\n"
	if got := buf.String(); got != want {
		t.Fatalf("trace text:\n%q\nwant:\n%q", got, want)
	}
}

func ExampleParseSync() {
	s, _ := psim.ParseSync("cons")
	fmt.Println(s)
	// Output: cons
}
