package psim

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// driver runs the rounds of both parallel cores on a fixed set of w
// persistent workers. Worker j owns the contiguous LP block
// [lo[j], lo[j+1]) for the whole run: only it pushes events into those
// LPs' queues, scans their heads, and drains them. Contiguous blocks
// keep each LP's state in one core's cache; round-robin ownership put
// every LP's neighbours on the other core and was measured no faster
// than one worker.
//
// A conservative round is two barriers:
//
//  1. each owner pushes the events bucketed for its block and
//     summarizes its block's heads (min1, min2, count, idx);
//  2. barrier; every worker merges the w summaries identically;
//  3. each owner drains its active LPs against the merged bounds and
//     buckets their sends by destination block;
//  4. barrier.
//
// The optimistic core uses the same skeleton: GVT is the merged min1,
// each owner fossil-collects and speculates over its own block, and
// delivery flags stragglers on the receiving block. When some block
// received a straggler, worker 0 runs the rollback cascade alone,
// between two extra barriers, in LP index order, and then every owner
// summarizes its heads again.
//
// Worker 0 is Run's own goroutine, and w == 1 runs this same driver
// with no goroutines and no-op barriers.
type driver struct {
	k     *kernel
	w     int
	lo    []int    // worker j owns LPs [lo[j], lo[j+1])
	owner []int32  // owner[i] is the worker that owns LP i
	ws    []worker // per-worker round state, indexed by worker
	bar   barrier

	// opt and dirty are the optimistic core's per-LP bookkeeping and
	// straggler flags; nil under the conservative core.
	opt    []optLP
	dirty  []bool
	window float64

	failMu sync.Mutex
	failed bool
	failV  any // first value a worker panicked with
}

// worker is one worker's round state. Each summary is written by its
// owner and read by every worker across a barrier; the padding keeps
// two workers' hot fields off one cache line.
type worker struct {
	sum headSum
	// out[b] holds the sends this worker's LPs made in the last drain
	// phase to LPs of block b, in source LP index order.
	out [][]Event
	// dirty reports that delivery flagged a straggler in this block.
	dirty bool
	// cur holds the event this worker's LP is handling; Handle gets a
	// pointer to it (a pointer to a local would escape through the
	// interface call and allocate once per event).
	cur Event
	_   [64]byte
}

// headSum summarizes LP heads over a range in index order: the minimum
// head time, the smallest head time strictly above it, how many heads
// sit at the minimum, and the first LP index that does (-1 when min1 is
// +Inf). It is exactly what one sequential scan over all P heads
// produced, so merging block summaries in block order reproduces that
// scan's tie rules bit for bit.
type headSum struct {
	min1, min2 float64
	count, idx int
}

// summarize scans the heads of LPs [lo, hi).
func (k *kernel) summarize(lo, hi int) headSum {
	s := headSum{min1: math.Inf(1), min2: math.Inf(1), idx: -1}
	for i := lo; i < hi; i++ {
		h := k.lps[i].pq.head()
		if h == nil {
			continue
		}
		switch {
		case h.Time < s.min1:
			s.min2 = s.min1
			s.min1 = h.Time
			s.count = 1
			s.idx = i
		//lopc:allow floateq exact tie detection: LPs sharing the minimum head time must all use min1 as their bound
		case h.Time == s.min1:
			s.count++
		case h.Time < s.min2:
			s.min2 = h.Time
		}
	}
	return s
}

// merge folds the block summaries in block order. Blocks are
// contiguous and ascending, so the result equals summarize over all
// LPs: min2 is the least head above min1, the count sums over the
// blocks at min1, and idx is the first such block's.
func (d *driver) merge() headSum {
	g := d.ws[0].sum
	for j := 1; j < d.w; j++ {
		b := &d.ws[j].sum
		switch {
		case b.min1 < g.min1:
			if b.min2 < g.min1 {
				g.min2 = b.min2
			} else {
				g.min2 = g.min1
			}
			g.min1, g.count, g.idx = b.min1, b.count, b.idx
		//lopc:allow floateq exact tie detection, as in summarize
		case b.min1 == g.min1:
			g.count += b.count
			if b.min2 < g.min2 {
				g.min2 = b.min2
			}
		case b.min1 < g.min2:
			g.min2 = b.min1
		}
	}
	return g
}

// runParallel runs the conservative core, or with opt the optimistic
// one, on w workers.
func (k *kernel) runParallel(w int, opt bool) {
	k.newDriver(w, opt).run()
}

// newDriver boots every LP and builds the driver of a w-worker run.
func (k *kernel) newDriver(w int, opt bool) *driver {
	for i := range k.lps {
		r := &k.lps[i]
		r.ctx.q = &r.pq
	}
	// Boot every LP at time zero, then queue the boot sends in source
	// LP index order. (Queue order does not depend on insertion order —
	// keys are unique — but doing it deterministically anyway makes the
	// invariant local.)
	for i := range k.lps {
		r := &k.lps[i]
		r.lp.Start(&r.ctx)
	}
	for i := range k.lps {
		c := &k.lps[i].ctx
		for i := range c.out {
			k.lps[c.out[i].Dst].pq.push(&c.out[i])
		}
		c.out = c.out[:0]
	}

	n := len(k.lps)
	d := &driver{k: k, w: w, lo: make([]int, w+1), owner: make([]int32, n), ws: make([]worker, w)}
	for j := 0; j <= w; j++ {
		d.lo[j] = j * n / w
	}
	for j := 0; j < w; j++ {
		for i := d.lo[j]; i < d.lo[j+1]; i++ {
			d.owner[i] = int32(j)
		}
		d.ws[j].out = make([][]Event, w)
	}
	if opt {
		d.opt = make([]optLP, n)
		d.dirty = make([]bool, n)
		d.window = k.cfg.Window
		if d.window <= 0 {
			d.window = 8 * k.cfg.Lookahead
		}
	}
	d.bar.init(w, w <= min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return d
}

// run starts workers 1 … w-1, runs worker 0 on the calling goroutine,
// joins them, and re-raises the first recorded worker panic.
func (d *driver) run() {
	var wg sync.WaitGroup
	wg.Add(d.w - 1)
	for j := 1; j < d.w; j++ {
		go func(j int) {
			defer wg.Done()
			d.guard(j)
		}(j)
	}
	d.guard(0)
	wg.Wait()
	d.k.parks = d.bar.parks.Load()
	if d.failed {
		panic(d.failV)
	}
}

// guard runs worker j and turns a panic (or runtime.Goexit) in model
// code into an aborted barrier, so every other worker leaves its round
// and Run can re-panic with the value on its own goroutine.
func (d *driver) guard(j int) {
	done := false
	defer func() {
		if done {
			return
		}
		r := recover()
		if r == nil {
			r = errWorkerExit
		}
		d.failMu.Lock()
		if !d.failed {
			d.failed, d.failV = true, r
		}
		d.failMu.Unlock()
		d.bar.abort()
	}()
	d.work(j)
	done = true
}

// errWorkerExit is the value Run panics with when model code called
// runtime.Goexit on a worker.
var errWorkerExit = errors.New("psim: model code called runtime.Goexit on a worker")

// work is worker j's round loop; every worker leaves it at the same
// round, when the merged minimum head passes until.
func (d *driver) work(j int) {
	k := d.k
	me := &d.ws[j]
	lo, hi := d.lo[j], d.lo[j+1]
	for {
		me.dirty = d.receive(j)
		me.sum = k.summarize(lo, hi)
		if !d.bar.wait() {
			return
		}
		if d.opt != nil && d.anyDirty() {
			if j == 0 {
				k.cascade(d.opt, d.dirty)
			}
			if !d.bar.wait() {
				return
			}
			me.sum = k.summarize(lo, hi)
			if !d.bar.wait() {
				return
			}
		}
		g := d.merge()
		if g.min1 > k.until || math.IsInf(g.min1, 1) {
			return
		}
		if d.opt != nil {
			d.speculate(j, g.min1)
		} else {
			d.drain(j, g)
		}
		if j == 0 {
			k.stats.Rounds++
		}
		if !d.bar.wait() {
			return
		}
	}
}

// receive pushes the sends bucketed for worker j's block in the last
// drain phase into their destination queues, in source block order
// (and so in source LP index order). Under the optimistic core it also
// flags each receiver that got a straggler — an arrival at or before
// the latest event it already processed — and reports whether any did.
func (d *driver) receive(j int) bool {
	k := d.k
	flagged := false
	for s := 0; s < d.w; s++ {
		in := d.ws[s].out[j]
		for i := range in {
			ev := &in[i]
			k.lps[ev.Dst].pq.push(ev)
			if d.opt == nil {
				continue
			}
			// done times are nondecreasing, so done[n-1].Time is the
			// latest processed time; an arrival at or before it might
			// precede a processed event in key order (keys are not
			// monotone over done — see optLP). Overmarking is safe:
			// rollbackStragglers does the precise scan.
			od := &d.opt[ev.Dst]
			if n := len(od.done); n > 0 && ev.Time <= od.done[n-1].Time {
				d.dirty[ev.Dst] = true
				flagged = true
			}
		}
		d.ws[s].out[j] = in[:0]
	}
	return flagged
}

// anyDirty reports whether any block flagged a straggler. Every worker
// reads the same flags after the same barrier, so all agree.
func (d *driver) anyDirty() bool {
	for j := range d.ws {
		if d.ws[j].dirty {
			return true
		}
	}
	return false
}

// post moves an LP's round outbox into worker j's destination buckets.
func (d *driver) post(j int, c *Ctx) {
	out := d.ws[j].out
	for i := range c.out {
		b := d.owner[c.out[i].Dst]
		out[b] = append(out[b], c.out[i])
	}
	c.out = c.out[:0]
}

// barrier is a reusable n-party barrier that spins, yielding the
// processor, for a bounded number of checks and then parks. Spinning
// is what makes a round cheap — a parked worker costs tens of
// microseconds to wake, several times a short round's work — and it is
// only enabled when every worker can have a CPU of its own (w at most
// GOMAXPROCS and NumCPU). With more workers than CPUs a spinning waiter
// would hold a CPU the worker it waits for needs, so it parks at once.
type barrier struct {
	n       int32
	spins   int
	arrived atomic.Int32
	gen     atomic.Uint32
	aborted atomic.Bool
	parked  atomic.Int32
	parks   atomic.Int64 // park episodes, for tests
	mu      sync.Mutex
	cond    sync.Cond
}

// spinYields bounds a barrier wait's yielding spin before it parks. A
// yield costs about 125 ns on an idle 2-vCPU Xeon (2.1 GHz), so the
// spin lasts about half a millisecond, longer than a round's normal
// imbalance. Measured on the sim-par scenarios (P = 1024, two
// workers): a 64-yield bound parked 50–170 times per run and cost the
// conservative core a quarter of its speed; 1024 still parked 1–3
// times per optimistic run, around its serial cascades; 4096 parks
// under once per run, and longer bounds gained nothing.
const spinYields = 1 << 12

func (b *barrier) init(n int, spin bool) {
	b.n = int32(n)
	if spin {
		b.spins = spinYields
	}
	b.cond.L = &b.mu
}

// wait blocks until all n parties have arrived, and reports false when
// the barrier was aborted, in which case the caller must leave its
// round at once.
func (b *barrier) wait() bool {
	if b.n == 1 {
		return !b.aborted.Load()
	}
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.gen.Add(1)
		if b.parked.Load() > 0 {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		return !b.aborted.Load()
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() != g || b.aborted.Load() {
			return !b.aborted.Load()
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.parked.Add(1)
	b.parks.Add(1)
	for b.gen.Load() == g && !b.aborted.Load() {
		b.cond.Wait()
	}
	b.parked.Add(-1)
	b.mu.Unlock()
	return !b.aborted.Load()
}

// abort releases every current and future waiter with false.
func (b *barrier) abort() {
	b.aborted.Store(true)
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}
