package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine/shard"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ParSim routes a workload run through the parallel discrete-event core
// (internal/psim) instead of the single-threaded machine engine. Setting
// a config's Par field selects the core; the determinism contract
// guarantees that for a fixed seed every core at every job count commits
// the identical event sequence, so the measured results are the same
// whether the run is sequential, conservative, or optimistic.
//
// The psim path supports the paper's machine only: the all-to-all
// extras (Observer, LinkOccupancy, NIQueueCap, RetryDelay, PairLatency)
// are rejected, and only the stateless patterns (uniform, ring, shift,
// hotspot) are available. Machine-level statistics are reset per node at
// that node's own warmup boundary (the single-threaded engine resets
// globally when the last node finishes warmup), so windowed time
// averages can differ from the legacy engine by the warmup skew; the
// per-cycle tallies (R, Rw, Rq, Ry, Net) measure identically.
type ParSim struct {
	// Sync names the synchronization core: "seq", "cons", or "opt".
	// Empty means "seq".
	Sync string
	// Jobs bounds worker parallelism in the parallel cores; <= 0 means
	// GOMAXPROCS. Jobs never affects results, only wall-clock time.
	Jobs int
	// Window overrides the optimistic core's speculation window beyond
	// GVT; <= 0 means 8x the lookahead.
	Window float64
	// Trace, when non-nil, collects the committed event trace — the
	// byte-comparable artifact of the determinism contract.
	Trace *psim.Trace
	// Stats, when non-nil, receives the core's run statistics (events,
	// rounds, rollbacks).
	Stats *psim.RunStats
	// Metrics, when non-nil, accumulates core counters (safe to share
	// across runs; the counters are atomic).
	Metrics *psim.Metrics
}

// core parses the Sync spelling.
func (p *ParSim) core() (psim.Sync, error) {
	if p.Sync == "" {
		return psim.SyncSeq, nil
	}
	return psim.ParseSync(p.Sync)
}

// perRep clones the selection for one replication of a replicated run:
// the core choice carries over, the per-run outputs (Trace, Stats) do
// not — replications would race on them. Metrics survives the
// clone because its counters are atomic and accumulation across
// replications is the point.
func (p *ParSim) perRep() *ParSim {
	if p == nil {
		return nil
	}
	return &ParSim{Sync: p.Sync, Jobs: p.Jobs, Window: p.Window, Metrics: p.Metrics}
}

// finish publishes the core statistics to the caller.
func (p *ParSim) finish(rs psim.RunStats) {
	if p.Stats != nil {
		*p.Stats = rs
	}
}

// parDest maps a Pattern onto the sharded machine. Only the stateless
// patterns are supported: their destinations are pure functions of the
// node's private stream, which is what the optimistic core needs to
// replay rolled-back draws identically.
func parDest(p Pattern) (func(v *shard.NodeView) int, error) {
	if p == nil {
		p = UniformPattern{}
	}
	switch pat := p.(type) {
	case UniformPattern:
		return func(v *shard.NodeView) int {
			d := v.Rand().Intn(v.N() - 1)
			if d >= v.Self() {
				d++
			}
			return d
		}, nil
	case RingPattern:
		return func(v *shard.NodeView) int {
			return (v.Self() + 1) % v.N()
		}, nil
	case ShiftPattern:
		return func(v *shard.NodeView) int {
			n := v.N()
			d := (v.Self() + pat.Offset) % n
			if d < 0 {
				d += n
			}
			if d == v.Self() {
				d = (v.Self() + 1) % n
			}
			return d
		}, nil
	case HotspotPattern:
		return func(v *shard.NodeView) int {
			r := v.Rand()
			if pat.Hot != v.Self() && r.Float64() < pat.Bias {
				return pat.Hot
			}
			d := r.Intn(v.N() - 1)
			if d >= v.Self() {
				d++
			}
			return d
		}, nil
	default:
		return nil, fmt.Errorf("workload: pattern %s is not supported with Par (stateless patterns only)", p)
	}
}

// atParRun is the immutable configuration shared by every all-to-all
// node program on the sharded machine.
type atParRun struct {
	work            dist.Distribution
	warmup, measure int
	dest            func(v *shard.NodeView) int
}

// atParProg is atProgram on the sharded machine: the same
// compute/request/unblock cycle, with the round-trip timestamps read
// from the node's CycleInfo and the measurements kept in program state
// so optimistic rollback unwinds them.
type atParProg struct {
	run                *atParRun
	phase              int // 0: first call, 1: compute done -> request, 2: reply unblocked
	cycle              int
	ready              float64
	r, rw, rq, ry, net stats.Tally
}

// Next implements shard.Program.
func (p *atParProg) Next(v *shard.NodeView) shard.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		return shard.Request(p.run.dest(v), 0, 0)
	case phaseUnblocked:
		p.endCycle(v)
		if p.cycle >= p.run.warmup+p.run.measure {
			return shard.Halt()
		}
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return shard.Compute(p.run.work.Sample(v.Rand()))
}

// endCycle mirrors atProgram.endCycle: record the completed cycle and
// roll ready to the reply handler's completion.
func (p *atParProg) endCycle(v *shard.NodeView) {
	c := v.Cycle()
	if p.cycle >= p.run.warmup {
		p.r.Add(c.RepDone - p.ready)
		p.rw.Add(c.ReqSent - p.ready)
		p.rq.Add(c.ReqDone - c.ReqArrived)
		p.ry.Add(c.RepDone - c.RepArrived)
		p.net.Add((c.ReqArrived - c.ReqSent) + (c.RepArrived - c.RepSent))
	}
	p.cycle++
	if p.cycle == p.run.warmup {
		v.ResetStats()
	}
	p.ready = c.RepDone
}

// Save and Restore implement shard.Program; the state is all values.
func (p *atParProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *atParProg) Restore(snapshot any) { *p = *snapshot.(*atParProg) }

// saveInto is the Save of a program whose state is all values: a
// struct copy into the reused snapshot, or into a new one.
func saveInto[T any](p *T, reuse any) *T {
	s, _ := reuse.(*T)
	if s == nil {
		s = new(T)
	}
	*s = *p
	return s
}

// runAllToAllPar is RunAllToAll through the parallel core.
func runAllToAllPar(cfg AllToAllConfig) (AllToAllResult, error) {
	//lopc:allow floateq exact-zero tests against the unset-field default, not computed values
	if cfg.Observer != nil || cfg.LinkOccupancy != 0 || cfg.NIQueueCap != 0 ||
		//lopc:allow floateq same unset-field sentinel check continued
		cfg.RetryDelay != 0 || cfg.PairLatency != nil {
		return AllToAllResult{}, fmt.Errorf("workload: Par supports the paper machine only " +
			"(no Observer, LinkOccupancy, NIQueueCap, RetryDelay, or PairLatency)")
	}
	sync, err := cfg.Par.core()
	if err != nil {
		return AllToAllResult{}, err
	}
	dest, err := parDest(cfg.Pattern)
	if err != nil {
		return AllToAllResult{}, err
	}
	run := &atParRun{
		work:    cfg.Work,
		warmup:  cfg.WarmupCycles,
		measure: cfg.MeasureCycles,
		dest:    dest,
	}
	progs := make([]shard.Program, cfg.P)
	nodes := make([]*atParProg, cfg.P)
	for i := range progs {
		nodes[i] = &atParProg{run: run}
		progs[i] = nodes[i]
	}
	sres, err := shard.Run(shard.Config{
		P:                 cfg.P,
		Latency:           cfg.Latency,
		Services:          []dist.Distribution{cfg.Service},
		Programs:          progs,
		ProtocolProcessor: cfg.ProtocolProcessor,
		Seed:              cfg.Seed,
		Sync:              sync,
		Jobs:              cfg.Par.Jobs,
		Window:            cfg.Par.Window,
		Trace:             cfg.Par.Trace,
		Metrics:           cfg.Par.Metrics,
	})
	if err != nil {
		return AllToAllResult{}, err
	}
	var res AllToAllResult
	for _, p := range nodes {
		res.R.Merge(&p.r)
		res.Rw.Merge(&p.rw)
		res.Rq.Merge(&p.rq)
		res.Ry.Merge(&p.ry)
		res.Net.Merge(&p.net)
	}
	res.Machine = sres.Aggregate()
	if mean := res.R.Mean(); mean > 0 {
		res.X = float64(cfg.P) / mean
	}
	cfg.Par.finish(sres.Run)
	return res, nil
}

// wpParRun is the shared configuration of a work-pile run on the
// sharded machine.
type wpParRun struct {
	pc, ps      int
	warmup, end float64
}

// wpParProg is wpProgram on the sharded machine: clients cycle through
// compute and a request to a uniformly random server; measurements are
// windowed on the reply completion time.
type wpParProg struct {
	run    *wpParRun
	chunk  dist.Distribution
	phase  int
	ready  float64
	r, rs  stats.Tally
	chunks int64
}

// Next implements shard.Program.
func (p *wpParProg) Next(v *shard.NodeView) shard.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		dst := p.run.pc + v.Rand().Intn(p.run.ps)
		return shard.Request(dst, 0, 0)
	case phaseUnblocked:
		c := v.Cycle()
		if c.RepDone >= p.run.warmup && c.RepDone <= p.run.end {
			p.r.Add(c.RepDone - p.ready)
			p.rs.Add(c.ReqDone - c.ReqArrived)
			p.chunks++
		}
		p.ready = c.RepDone
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return shard.Compute(p.chunk.Sample(v.Rand()))
}

// Save and Restore implement shard.Program.
func (p *wpParProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *wpParProg) Restore(snapshot any) { *p = *snapshot.(*wpParProg) }

// runWorkpilePar is RunWorkpile through the parallel core.
func runWorkpilePar(cfg WorkpileConfig) (WorkpileResult, error) {
	sync, err := cfg.Par.core()
	if err != nil {
		return WorkpileResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	pc := cfg.P - cfg.Ps
	run := &wpParRun{pc: pc, ps: cfg.Ps, warmup: cfg.WarmupTime, end: end}
	progs := make([]shard.Program, cfg.P)
	clients := make([]*wpParProg, pc)
	for i := 0; i < pc; i++ {
		chunk := cfg.Chunk
		if cfg.PerClientChunk != nil && cfg.PerClientChunk[i] != nil {
			chunk = cfg.PerClientChunk[i]
		}
		clients[i] = &wpParProg{run: run, chunk: chunk}
		progs[i] = clients[i]
	}
	sres, err := shard.Run(shard.Config{
		P:            cfg.P,
		Latency:      cfg.Latency,
		Services:     []dist.Distribution{cfg.Service},
		Programs:     progs,
		Seed:         cfg.Seed,
		ResetStatsAt: cfg.WarmupTime,
		Until:        end,
		Sync:         sync,
		Jobs:         cfg.Par.Jobs,
		Window:       cfg.Par.Window,
		Trace:        cfg.Par.Trace,
		Metrics:      cfg.Par.Metrics,
	})
	if err != nil {
		return WorkpileResult{}, err
	}
	res := WorkpileResult{ChunksByClient: make([]int64, pc)}
	for i, p := range clients {
		res.R.Merge(&p.r)
		res.Rs.Merge(&p.rs)
		res.Chunks += p.chunks
		res.ChunksByClient[i] = p.chunks
	}
	res.X = float64(res.Chunks) / cfg.MeasureTime
	for s := pc; s < cfg.P; s++ {
		ns := &sres.Nodes[s]
		res.Qs += ns.ReqQueue
		res.Us += ns.UtilReq
	}
	res.Qs /= float64(cfg.Ps)
	res.Us /= float64(cfg.Ps)
	cfg.Par.finish(sres.Run)
	return res, nil
}

// lockParProg drives one lock-workload thread on the sharded machine:
// the work-pile client with a fixed destination (the lock node) and a
// free reply handler.
type lockParProg struct {
	run   *wpParRun // the lock node is the single "server" at index pc
	work  dist.Distribution
	phase int
	ready float64
	r, rs stats.Tally
	acqs  int64
}

// Next implements shard.Program.
func (p *lockParProg) Next(v *shard.NodeView) shard.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		return shard.Request(p.run.pc, 0, 1) // service 0: critical section; reply 1: free grant
	case phaseUnblocked:
		c := v.Cycle()
		if c.RepDone >= p.run.warmup && c.RepDone <= p.run.end {
			p.r.Add(c.RepDone - p.ready)
			p.rs.Add(c.ReqDone - c.ReqArrived)
			p.acqs++
		}
		p.ready = c.RepDone
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return shard.Compute(p.work.Sample(v.Rand()))
}

// Save and Restore implement shard.Program.
func (p *lockParProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *lockParProg) Restore(snapshot any) { *p = *snapshot.(*lockParProg) }

// runLockPar is RunLock through the parallel core.
func runLockPar(cfg LockConfig) (LockSimResult, error) {
	sync, err := cfg.Par.core()
	if err != nil {
		return LockSimResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	run := &wpParRun{pc: cfg.Threads, ps: 1, warmup: cfg.WarmupTime, end: end}
	progs := make([]shard.Program, cfg.Threads+1)
	threads := make([]*lockParProg, cfg.Threads)
	for i := range threads {
		threads[i] = &lockParProg{run: run, work: cfg.Work}
		progs[i] = threads[i]
	}
	sres, err := shard.Run(shard.Config{
		P:            cfg.Threads + 1,
		Latency:      cfg.Handoff,
		Services:     []dist.Distribution{cfg.Critical, dist.NewDeterministic(0)},
		Programs:     progs,
		Seed:         cfg.Seed,
		ResetStatsAt: cfg.WarmupTime,
		Until:        end,
		Sync:         sync,
		Jobs:         cfg.Par.Jobs,
		Window:       cfg.Par.Window,
		Trace:        cfg.Par.Trace,
		Metrics:      cfg.Par.Metrics,
	})
	if err != nil {
		return LockSimResult{}, err
	}
	var res LockSimResult
	for _, p := range threads {
		res.R.Merge(&p.r)
		res.Rs.Merge(&p.rs)
		res.Acquisitions += p.acqs
	}
	res.X = float64(res.Acquisitions) / cfg.MeasureTime
	lock := &sres.Nodes[cfg.Threads]
	res.Q = lock.ReqQueue
	res.U = lock.UtilReq
	cfg.Par.finish(sres.Run)
	return res, nil
}

// Lock-free event kinds: the single LP schedules every thread's phase
// transitions as self-events (I0 carries the thread index).
const (
	lfRoundStart int32 = iota + 1 // the thread's parallel work finished
	lfRoundEnd                    // a retry round finished: CAS resolution
	lfCommitDone                  // the winning CAS's serialization finished
)

// lfParThread is one thread's state inside the lock-free LP.
type lfParThread struct {
	r     rng.Stream
	ready float64
	v0    uint64
}

// lfLP runs the whole CAS-retry workload as a single logical process:
// the shared versioned word makes the threads' interactions
// zero-latency, so there is no lookahead to shard on — but routing the
// run through psim still gives the committed trace, the core
// statistics, and one committed event sequence across every core (a
// one-LP run degenerates to the sequential algorithm by construction).
// The per-thread streams replicate RunLockFree's construction order, so
// both paths draw identical samples.
type lfLP struct {
	cfg                    *LockFreeConfig
	warmup                 float64
	end                    float64
	version                uint64
	threads                []lfParThread
	r                      stats.Tally
	ops, rounds, conflicts int64
}

func (l *lfLP) inWin(t float64) bool {
	return t >= l.warmup && t <= l.end
}

// Start implements psim.LP: each thread begins its first cycle at time
// zero, exactly like RunLockFree's initial Schedule(0, startCycle).
func (l *lfLP) Start(ctx *psim.Ctx) {
	for i := range l.threads {
		t := &l.threads[i]
		t.ready = 0
		ctx.Send(ctx.Self(), l.cfg.Work.Sample(&t.r), lfRoundStart, psim.Msg{I0: int32(i)})
	}
}

// Handle implements psim.LP.
func (l *lfLP) Handle(ctx *psim.Ctx, ev psim.Event) {
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

// runLockFreePar is RunLockFree through the parallel core.
func runLockFreePar(cfg LockFreeConfig) (LockFreeSimResult, error) {
	sync, err := cfg.Par.core()
	if err != nil {
		return LockFreeSimResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	lp := &lfLP{
		cfg:     &cfg,
		warmup:  cfg.WarmupTime,
		end:     end,
		threads: make([]lfParThread, cfg.Threads),
	}
	src := rng.NewSource(cfg.Seed)
	for i := range lp.threads {
		lp.threads[i].r = *src.Stream()
	}
	rs, err := psim.Run(psim.Config{
		LPs:     []psim.LP{lp},
		Sync:    sync,
		Jobs:    cfg.Par.Jobs,
		Seed:    cfg.Seed,
		Until:   end,
		Window:  cfg.Par.Window,
		Trace:   cfg.Par.Trace,
		Metrics: cfg.Par.Metrics,
	})
	if err != nil {
		return LockFreeSimResult{}, err
	}
	res := LockFreeSimResult{R: lp.r, Ops: lp.ops, Rounds: lp.rounds}
	res.X = float64(res.Ops) / cfg.MeasureTime
	if res.Rounds > 0 {
		res.Conflict = float64(lp.conflicts) / float64(res.Rounds)
	}
	if res.Ops > 0 {
		res.Attempts = float64(res.Rounds) / float64(res.Ops)
	}
	cfg.Par.finish(rs)
	return res, nil
}
