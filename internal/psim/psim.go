// Package psim is the parallel discrete-event simulation core: it
// shards a simulated machine into logical processes (LPs) connected by
// timestamped event messages and runs them under one of three
// runtime-switchable synchronization cores.
//
//   - SyncSeq processes events one at a time in global timestamp order —
//     the determinism oracle.
//   - SyncCons is a conservative core in the Chandy–Misra–Bryant
//     family: the guaranteed minimum cross-LP delay (the lookahead —
//     for the LoPC machine, the network latency St) bounds how far any
//     LP may safely run ahead of the global virtual-time floor. Each
//     synchronization round plays the role of CMB null messages: it
//     advances every LP's earliest-input-time to (min other head + St)
//     at a barrier instead of flooding point-to-point nulls, which is
//     deadlock-free by construction for St > 0.
//   - SyncOpt is an optimistic (Time Warp) core: LPs speculate beyond
//     the floor inside a bounded window, snapshotting state before
//     every event; a straggler message rolls the LP back (restoring the
//     snapshot and emitting anti-messages for sends that must be
//     undone), and the per-round GVT — the floor itself — drives fossil
//     collection of snapshots no rollback can reach. The bounded window
//     is what keeps cascade rollbacks short: no chain can reach further
//     than GVT + window.
//
// The determinism contract is the point of the design: for a fixed
// seed, every core at every job count commits the identical event
// sequence. Three mechanisms carry it. Event ties break by the
// canonical key (Time, Dst, Src, Seq) — LP index before per-source send
// sequence — so ordering never depends on arrival order or worker
// interleaving. Each LP draws randomness from its own rng.SeedAt
// substream, so draws on one LP cannot perturb another. And all
// cross-LP effects are buffered per round and take effect only at a
// barrier, in LP index order, so the parallel cores are pure functions
// of (seed, model), not of the schedule.
//
// The parallel cores run on w = min(Jobs, GOMAXPROCS, LPs) persistent
// workers, Run's own goroutine among them. Each owns one contiguous
// block of LPs for the whole run — it alone pushes their events, scans
// their heads and drains them — so a round touches each LP from one
// core. A conservative round is two barriers: owners deliver the sends
// bucketed for their block and summarize its heads; every worker merges
// the w summaries into the same bounds; owners drain and bucket their
// sends by destination block. The optimistic core runs the same round,
// with the rollback cascade serial on worker 0 when a straggler
// arrived. Barriers spin, yielding the processor, for a bounded number
// of checks before parking the worker. The optimistic core recycles
// the snapshots it has discarded through LP.Save's reuse argument, so
// checkpointing stops allocating once an LP's snapshot count stops
// growing.
package psim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Msg is the fixed payload of an event. Models encode what they need in
// the numbered fields (selectors into model-owned tables, timestamps,
// thread indices); a flat value struct keeps sends allocation-free and
// makes events trivially copyable for optimistic rollback.
type Msg struct {
	F0, F1, F2, F3 float64
	I0, I1         int32
	U0             uint64
}

// Event is one timestamped message between LPs (or an LP's self-event).
// Events are pure values: the kernel copies them freely between queues,
// round buffers, and rollback logs.
type Event struct {
	// Time is the simulated delivery time.
	Time float64
	// Src and Dst are LP indices; self-events have Src == Dst.
	Src, Dst int32
	// Kind is a model-defined discriminator.
	Kind int32
	// Seq is the per-source send sequence number, assigned by Ctx.Send.
	// (Src, Seq) uniquely identifies an event, which is what
	// anti-messages use to find their positive counterpart.
	Seq uint64
	// Msg is the payload.
	Msg Msg
}

// eventLess is the canonical global commit order (Time, Dst, Src, Seq).
// Dst before Src so all of one LP's deliveries at a tied timestamp are
// contiguous; Seq last so an LP's own sends stay in issue order.
func eventLess(a, b *Event) bool {
	//lopc:allow floateq exact tie detection is the point: equal timestamps must fall through to the index keys
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// localLess is eventLess restricted to one LP's deliveries (Dst fixed):
// (Time, Src, Seq).
func localLess(a, b *Event) bool {
	//lopc:allow floateq exact tie detection, as in eventLess
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// LP is one logical process: a shard of the simulated system that owns
// its state exclusively and interacts with other LPs only through
// timestamped events.
type LP interface {
	// Start runs once at time zero, before any event is processed; the
	// model bootstraps by scheduling its first events via ctx.Send.
	Start(ctx *Ctx)
	// Handle processes one delivered event. Under the optimistic core
	// it may run speculatively and be undone by Restore, so it must not
	// touch state outside the LP (shared immutable configuration is
	// fine). Distinct LPs may run concurrently on different workers.
	//
	// ev points into storage the kernel owns and reuses once Handle
	// returns: Handle must not retain the pointer (copy the event to
	// keep it) and must not modify the event.
	Handle(ctx *Ctx, ev *Event)
	// Save returns a snapshot of the LP's mutable state; Restore
	// reinstates one. Only the optimistic core calls them. LPs that
	// will never run optimistically may implement them as no-ops.
	//
	// reuse is nil or a snapshot this LP's Save returned earlier that
	// the kernel has discarded (fossil-collected, or cut off by a
	// rollback); Save may overwrite it in place and return it instead of
	// allocating. Restore must not retain its argument: once it returns,
	// the snapshot may be handed back to Save as reuse.
	Save(reuse any) any
	Restore(snapshot any)
}

// Ctx is the kernel's per-LP execution context, passed to Start and
// Handle. It carries the LP's clock, its private random stream, and the
// send primitive. A Ctx is owned by exactly one LP and is never shared
// across workers.
type Ctx struct {
	id        int32
	n         int32
	recOn     bool
	now       float64
	lookahead float64
	rand      rng.Stream
	sendSeq   uint64
	processed uint64
	q         *evHeap // destination of self-sends under the parallel cores; nil under SyncSeq
	out       []Event // sends buffered for the next barrier; under SyncSeq, every send until Handle returns
	rec       []Record
}

// Now returns the LP's current simulated time.
func (c *Ctx) Now() float64 { return c.now }

// Self returns the LP's index.
func (c *Ctx) Self() int { return int(c.id) }

// N returns the number of LPs in the run.
func (c *Ctx) N() int { return int(c.n) }

// Rand returns the LP's private random stream, derived from the run
// seed with rng.SeedAt(seed, lp). Under the optimistic core the stream
// is part of the snapshot, so rolled-back draws are replayed
// identically.
func (c *Ctx) Rand() *rng.Stream { return &c.rand }

// Send schedules an event for LP dst at Now()+delay. Cross-LP sends
// must respect the configured lookahead: delay >= Config.Lookahead, the
// promise the conservative and optimistic windows are built on. The
// kernel enforces it in every core — including the sequential oracle —
// so a model that breaks its own bound fails fast rather than
// diverging across cores.
func (c *Ctx) Send(dst int, delay float64, kind int32, m Msg) {
	if dst < 0 || int32(dst) >= c.n {
		panic(fmt.Sprintf("psim: LP %d sends to invalid LP %d of %d", c.id, dst, c.n))
	}
	if !(delay >= 0) {
		panic(fmt.Sprintf("psim: LP %d sends with invalid delay %v", c.id, delay))
	}
	ev := Event{
		Time: c.now + delay,
		Src:  c.id,
		Dst:  int32(dst),
		Kind: kind,
		Seq:  c.sendSeq,
		Msg:  m,
	}
	c.sendSeq++
	if int32(dst) == c.id {
		if c.q != nil {
			c.q.push(&ev)
			return
		}
	} else if delay < c.lookahead {
		panic(fmt.Sprintf("psim: LP %d sends to LP %d with delay %v below the declared lookahead %v",
			c.id, dst, delay, c.lookahead))
	}
	c.out = append(c.out, ev)
}

// commit advances the LP's clock to ev and records the trace entry.
// Handlers run after it.
func (c *Ctx) commit(ev *Event) {
	c.now = ev.Time
	c.processed++
	if c.recOn {
		c.rec = append(c.rec, Record{Time: ev.Time, Src: ev.Src, Dst: ev.Dst, Kind: ev.Kind, Seq: ev.Seq})
	}
}

// Sync selects a synchronization core.
type Sync int

const (
	// SyncSeq is the sequential oracle.
	SyncSeq Sync = iota
	// SyncCons is the conservative lookahead-window core.
	SyncCons
	// SyncOpt is the optimistic rollback core.
	SyncOpt
)

// ParseSync maps the CLI spelling ("seq", "cons", "opt") to a Sync.
func ParseSync(s string) (Sync, error) {
	switch s {
	case "seq":
		return SyncSeq, nil
	case "cons":
		return SyncCons, nil
	case "opt":
		return SyncOpt, nil
	default:
		return 0, fmt.Errorf("psim: unknown sync core %q (want seq, cons, or opt)", s)
	}
}

func (s Sync) String() string {
	switch s {
	case SyncSeq:
		return "seq"
	case SyncCons:
		return "cons"
	case SyncOpt:
		return "opt"
	default:
		return fmt.Sprintf("Sync(%d)", int(s))
	}
}

// Config describes one parallel simulation run.
type Config struct {
	// LPs are the logical processes, indexed by LP id.
	LPs []LP
	// Lookahead is the guaranteed minimum delay of every cross-LP send
	// — for the LoPC machine, the lower bound of the network-latency
	// distribution (St for the paper's deterministic wire time). It is
	// what lets the parallel cores run LPs concurrently; with a zero
	// lookahead (or a single LP) they degenerate to the sequential
	// algorithm, which is still correct, just not parallel.
	Lookahead float64
	// Sync selects the synchronization core; the zero value is SyncSeq.
	Sync Sync
	// Jobs bounds worker parallelism in the parallel cores; <= 0 means
	// GOMAXPROCS, and larger values are capped at GOMAXPROCS and at the
	// number of LPs. Jobs never affects committed results, only speed.
	Jobs int
	// Seed roots the per-LP random substreams (rng.SeedAt(Seed, lp)).
	Seed uint64
	// Until bounds the run: events with Time <= Until are processed.
	// Zero (or +Inf) means run to quiescence.
	Until float64
	// Window is the optimistic core's speculation bound beyond GVT;
	// zero means 8× Lookahead. A larger window exposes more parallelism
	// and risks longer rollbacks; the bound itself is what keeps
	// cascade rollbacks finite, so a negative, NaN or infinite window
	// is an error.
	Window float64
	// Trace, when non-nil, collects the committed event trace — the
	// byte-comparable artifact of the determinism contract.
	Trace *Trace
	// Metrics, when non-nil, receives event/round/rollback counters
	// after the run.
	Metrics *Metrics
}

// RunStats summarizes one run. Events, PerLP, and MaxTime are part of
// the determinism contract (identical across cores and job counts);
// Rounds, Rollbacks, and RolledBack describe how the chosen core got
// there.
type RunStats struct {
	// Events is the number of committed events.
	Events uint64
	// PerLP is the committed event count by LP.
	PerLP []uint64
	// MaxTime is the largest committed event time.
	MaxTime float64
	// Rounds counts synchronization rounds (conservative windows or
	// optimistic GVT epochs); zero under the sequential algorithm.
	Rounds uint64
	// Rollbacks counts rollback episodes (optimistic core only).
	Rollbacks uint64
	// RolledBack counts speculatively processed events that were undone
	// and re-executed (optimistic core only).
	RolledBack uint64
}

// Metrics exposes run counters through an obs.Registry.
type Metrics struct {
	Events     *obs.Counter
	Rounds     *obs.Counter
	Rollbacks  *obs.Counter
	RolledBack *obs.Counter
}

// NewMetrics registers the psim counters on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Events:     reg.Counter("lopc_psim_events_total", "committed simulation events", nil),
		Rounds:     reg.Counter("lopc_psim_sync_rounds_total", "synchronization rounds (windows/GVT epochs)", nil),
		Rollbacks:  reg.Counter("lopc_psim_rollbacks_total", "optimistic rollback episodes", nil),
		RolledBack: reg.Counter("lopc_psim_rolled_back_events_total", "speculative events undone and re-executed", nil),
	}
}

// Record is one committed trace entry.
type Record struct {
	Time           float64
	Src, Dst, Kind int32
	Seq            uint64
}

func recordLess(a, b *Record) bool {
	//lopc:allow floateq exact tie detection, as in eventLess
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// Trace is the committed event trace of a run, sorted by the canonical
// global key (Time, Dst, Src, Seq). Two runs satisfy the determinism
// contract exactly when their traces are byte-identical under WriteTo.
type Trace struct {
	recs []Record
}

// Len returns the number of committed entries.
func (t *Trace) Len() int { return len(t.recs) }

// Records returns the committed entries in global commit order. The
// slice is owned by the Trace.
func (t *Trace) Records() []Record { return t.recs }

// WriteTo writes the trace as text, one event per line:
// "time src dst seq kind", with the timestamp in Go's exact hexadecimal
// floating-point form so equal traces are equal bytes and unequal
// traces differ even in the last ulp.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	inner := &countWriter{w: w}
	bw := bufio.NewWriter(inner)
	var line []byte
	for i := range t.recs {
		r := &t.recs[i]
		line = line[:0]
		line = strconv.AppendFloat(line, r.Time, 'x', -1, 64)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Src), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Dst), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, r.Seq, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Kind), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return inner.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return inner.n, err
	}
	return inner.n, nil
}

// countWriter counts bytes that reached the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// lpRun is the kernel's per-LP slot: the model LP, its context, and
// its pending-event queue under the parallel cores. SyncSeq leaves pq
// empty: it pools all events in one global keyQueue.
type lpRun struct {
	lp  LP
	ctx Ctx
	pq  evHeap
}

// kernel is the shared run state across cores.
type kernel struct {
	cfg   Config
	lps   []lpRun
	until float64
	rec   []Record // global commit log (sequential algorithm only)
	stats RunStats
	parks int64 // barrier park episodes of the parallel cores
}

// Run executes the configured simulation and returns its statistics.
// A panic in model code on any worker stops every worker and is
// re-raised, with the same value, on the caller's goroutine.
func Run(cfg Config) (RunStats, error) {
	k, err := run(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		return RunStats{}, err
	}
	return k.stats, nil
}

// run is Run with the worker count capped at maxWorkers instead of
// GOMAXPROCS.
func run(cfg Config, maxWorkers int) (*kernel, error) {
	k, err := newKernel(cfg)
	if err != nil {
		return nil, err
	}
	// With one LP or no usable lookahead the parallel windows collapse
	// to a single safe event, so every core runs the sequential
	// algorithm — same commits, no rounds.
	if n := len(k.lps); cfg.Sync == SyncSeq || n == 1 || cfg.Lookahead <= 0 {
		if cfg.Trace != nil {
			k.rec = []Record{}
		}
		k.runSeq()
	} else {
		w := cfg.Jobs
		if w <= 0 || w > maxWorkers {
			w = maxWorkers
		}
		k.runParallel(min(w, n), cfg.Sync == SyncOpt)
	}

	k.finish()
	return k, nil
}

// newKernel validates cfg and builds the kernel's per-LP state.
func newKernel(cfg Config) (*kernel, error) {
	n := len(cfg.LPs)
	switch {
	case n == 0:
		return nil, fmt.Errorf("psim: no LPs configured")
	case !(cfg.Lookahead >= 0) || math.IsInf(cfg.Lookahead, 0):
		return nil, fmt.Errorf("psim: invalid lookahead %v", cfg.Lookahead)
	case cfg.Sync < SyncSeq || cfg.Sync > SyncOpt:
		return nil, fmt.Errorf("psim: invalid sync core %d", int(cfg.Sync))
	case math.IsNaN(cfg.Until) || cfg.Until < 0:
		return nil, fmt.Errorf("psim: invalid until %v", cfg.Until)
	case !(cfg.Window >= 0) || math.IsInf(cfg.Window, 0):
		return nil, fmt.Errorf("psim: invalid window %v", cfg.Window)
	}
	for i, lp := range cfg.LPs {
		if lp == nil {
			return nil, fmt.Errorf("psim: LP %d is nil", i)
		}
	}
	until := cfg.Until
	//lopc:allow floateq the exact zero value is the "run to completion" sentinel; any positive until passes through
	if until == 0 {
		until = math.Inf(1)
	}
	k := &kernel{cfg: cfg, until: until}
	k.lps = make([]lpRun, n)
	for i := range k.lps {
		r := &k.lps[i]
		r.lp = cfg.LPs[i]
		r.ctx = Ctx{
			id:        int32(i),
			n:         int32(n),
			recOn:     cfg.Trace != nil,
			lookahead: cfg.Lookahead,
			rand:      *rng.New(rng.SeedAt(cfg.Seed, uint64(i))),
		}
	}
	return k, nil
}

// finish folds per-LP counters into RunStats, publishes metrics, and
// assembles the committed trace.
func (k *kernel) finish() {
	st := &k.stats
	st.PerLP = make([]uint64, len(k.lps))
	for i := range k.lps {
		c := &k.lps[i].ctx
		st.PerLP[i] = c.processed
		st.Events += c.processed
		if c.processed > 0 && c.now > st.MaxTime {
			st.MaxTime = c.now
		}
	}
	if t := k.cfg.Trace; t != nil {
		if k.rec != nil {
			t.recs = k.rec
		} else {
			total := 0
			for i := range k.lps {
				total += len(k.lps[i].ctx.rec)
			}
			t.recs = make([]Record, 0, total)
			for i := range k.lps {
				t.recs = append(t.recs, k.lps[i].ctx.rec...)
			}
		}
		// Canonicalize: the trace is the committed set sorted by the
		// global key. Raw commit order is NOT key order at tied
		// timestamps — a zero-delay self-send (e.g. a free reply
		// handler) is created by its generator and so commits after it,
		// even when its (Time, Dst, Src, Seq) key is smaller. Sorting
		// makes the serialization a pure function of the committed set,
		// which is what the byte-identity contract compares. Keys are
		// unique, so the order is total.
		sort.Slice(t.recs, func(a, b int) bool { return recordLess(&t.recs[a], &t.recs[b]) })
	}
	if m := k.cfg.Metrics; m != nil {
		m.Events.Add(int64(st.Events))
		m.Rounds.Add(int64(st.Rounds))
		m.Rollbacks.Add(int64(st.Rollbacks))
		m.RolledBack.Add(int64(st.RolledBack))
	}
}
