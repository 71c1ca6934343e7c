package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// LockFreeConfig describes a CAS-retry run on the discrete-event core
// (one logical process, see lfLP): Threads threads share one versioned
// word and loop {compute Work; repeat a retry round of length Round
// until no other thread committed inside the round; pay Serial;
// commit}. A round models read-state / compute-new-value / CAS: it
// fails exactly when the shared version changed between its start and
// its end — conflicts regenerate the round's work instead of queueing
// it, the Atalar et al. conflict semantics.
type LockFreeConfig struct {
	// Threads is the number of contending threads.
	Threads int
	// Work is the parallel work distribution between successful
	// operations (mean W).
	Work dist.Distribution
	// Round is the retry-round distribution (mean So, SCV C²) — the
	// conflict window.
	Round dist.Distribution
	// Serial is the per-commit serialization cost distribution
	// (mean St): the exclusive cache-line transfer of the winning CAS.
	Serial dist.Distribution
	// WarmupTime and MeasureTime bound the measurement window.
	WarmupTime, MeasureTime float64
	// Seed roots the per-thread random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim. The run is a single logical process, so every
	// core executes it sequentially.
	Par *ParSim
}

func (c LockFreeConfig) validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("workload: lock-free needs Threads >= 1, got %d", c.Threads)
	case c.Work == nil || c.Round == nil || c.Serial == nil:
		return fmt.Errorf("workload: nil distribution in config")
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(c.WarmupTime >= 0) || !(c.MeasureTime > 0) || math.IsInf(c.WarmupTime, 0) || math.IsInf(c.MeasureTime, 0):
		return fmt.Errorf("workload: invalid window warmup=%v measure=%v", c.WarmupTime, c.MeasureTime)
	}
	return nil
}

// LockFreeSimResult holds the measured CAS-retry statistics, aligned
// with core.LockFreeResult.
type LockFreeSimResult struct {
	// X is the system throughput: successful operations per cycle
	// across all threads in the measurement window.
	X float64
	// R is the full thread cycle time (commit completion to commit
	// completion).
	R stats.Tally
	// Attempts is the mean number of retry rounds per successful
	// operation in the window.
	Attempts float64
	// Conflict is the fraction of rounds that lost their CAS.
	Conflict float64
	// Ops counts successful operations in the window.
	Ops int64
	// Rounds counts retry rounds completed in the window.
	Rounds int64
}

// Lock-free event kinds: the single LP schedules every thread's phase
// transitions as self-events (I0 carries the thread index).
const (
	lfRoundStart int32 = iota + 1 // the thread's parallel work finished
	lfRoundEnd                    // a retry round finished: CAS resolution
	lfCommitDone                  // the winning CAS's serialization finished
)

// lfThread is one thread's state inside the lock-free LP.
type lfThread struct {
	r     rng.Stream
	ready float64 // start of the current cycle
	v0    uint64  // version observed at the current round's start
}

// lfLP runs the whole CAS-retry workload as a single logical process:
// the shared versioned word makes the threads' interactions
// zero-latency, so there is no lookahead to shard on — but routing the
// run through psim still gives the committed trace, the core
// statistics, and one committed event sequence across every core (a
// one-LP run degenerates to the sequential algorithm by construction).
// Each thread draws from its own stream of the run's rng.Source.
type lfLP struct {
	cfg                    *LockFreeConfig
	warmup                 float64
	end                    float64
	version                uint64 // the shared versioned word; commits increment it
	threads                []lfThread
	r                      stats.Tally
	ops, rounds, conflicts int64
}

func (l *lfLP) inWin(t float64) bool {
	return t >= l.warmup && t <= l.end
}

// Start implements psim.LP: each thread begins its first cycle at time
// zero.
func (l *lfLP) Start(ctx *psim.Ctx) {
	for i := range l.threads {
		t := &l.threads[i]
		t.ready = 0
		ctx.Send(ctx.Self(), l.cfg.Work.Sample(&t.r), lfRoundStart, psim.Msg{I0: int32(i)})
	}
}

// Handle implements psim.LP.
func (l *lfLP) Handle(ctx *psim.Ctx, ev *psim.Event) {
	t := &l.threads[ev.Msg.I0]
	now := ctx.Now()
	switch ev.Kind {
	case lfRoundStart:
		t.v0 = l.version
		ctx.Send(ctx.Self(), l.cfg.Round.Sample(&t.r), lfRoundEnd, psim.Msg{I0: ev.Msg.I0})
	case lfRoundEnd:
		measured := l.inWin(now)
		if measured {
			l.rounds++
		}
		if l.version != t.v0 {
			// Another thread committed inside the window: the CAS fails
			// and the round's work regenerates.
			if measured {
				l.conflicts++
			}
			t.v0 = l.version
			ctx.Send(ctx.Self(), l.cfg.Round.Sample(&t.r), lfRoundEnd, psim.Msg{I0: ev.Msg.I0})
			return
		}
		l.version++
		ctx.Send(ctx.Self(), l.cfg.Serial.Sample(&t.r), lfCommitDone, psim.Msg{I0: ev.Msg.I0})
	case lfCommitDone:
		if l.inWin(now) {
			l.ops++
			l.r.Add(now - t.ready)
		}
		t.ready = now
		ctx.Send(ctx.Self(), l.cfg.Work.Sample(&t.r), lfRoundStart, psim.Msg{I0: ev.Msg.I0})
	default:
		panic(fmt.Sprintf("workload: lock-free LP received unknown event kind %d", ev.Kind))
	}
}

// Save and Restore implement psim.LP. The threads slice is the only
// reference field; each side copies it into its own backing array.
func (l *lfLP) Save(reuse any) any {
	s, _ := reuse.(*lfLP)
	if s == nil {
		s = new(lfLP)
	}
	threads := s.threads[:0]
	*s = *l
	s.threads = append(threads, l.threads...)
	return s
}

func (l *lfLP) Restore(snapshot any) {
	s := snapshot.(*lfLP)
	threads := l.threads[:0]
	*l = *s
	l.threads = append(threads, s.threads...)
}

// RunLockFree executes one CAS-retry simulation.
func RunLockFree(cfg LockFreeConfig) (LockFreeSimResult, error) {
	if err := cfg.validate(); err != nil {
		return LockFreeSimResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	lp := &lfLP{
		cfg:     &cfg,
		warmup:  cfg.WarmupTime,
		end:     end,
		threads: make([]lfThread, cfg.Threads),
	}
	src := rng.NewSource(cfg.Seed)
	for i := range lp.threads {
		lp.threads[i].r = *src.Stream()
	}
	psimCfg := psim.Config{LPs: []psim.LP{lp}, Seed: cfg.Seed, Until: end}
	if err := cfg.Par.apply(&psimCfg); err != nil {
		return LockFreeSimResult{}, err
	}
	rs, err := psim.Run(psimCfg)
	if err != nil {
		return LockFreeSimResult{}, err
	}
	cfg.Par.finish(rs)
	res := LockFreeSimResult{R: lp.r, Ops: lp.ops, Rounds: lp.rounds}
	res.X = float64(res.Ops) / cfg.MeasureTime
	if res.Rounds > 0 {
		res.Conflict = float64(lp.conflicts) / float64(res.Rounds)
	}
	if res.Ops > 0 {
		res.Attempts = float64(res.Rounds) / float64(res.Ops)
	}
	return res, nil
}
