package psim

import (
	"sort"

	"repro/internal/rng"
)

// optSnap is the state checkpoint taken before each speculative event:
// the model's snapshot plus the kernel-side context (clock, random
// stream, send sequence, log lengths) needed to unwind it exactly.
type optSnap struct {
	state     any
	rand      rng.Stream // value copy: rolled-back draws replay identically
	now       float64
	sendSeq   uint64
	processed uint64
	recLen    int
	outLen    uint64 // absolute cross-send count at snapshot time (outBase-relative logs shift under fossil collection)
}

// optLP is the optimistic core's per-LP bookkeeping.
type optLP struct {
	// done holds the speculatively processed events in processing order;
	// snaps[i] is the checkpoint taken before done[i]. A rollback
	// truncates both and requeues the suffix. Processing order is
	// nondecreasing in Time but NOT monotone in the local key: a
	// zero-delay self-send is created by its generator and so runs after
	// it even when its (Time, Src, Seq) key is smaller. Searches over
	// done must therefore be linear, never binary on the key.
	done  []Event
	snaps []optSnap
	// outLog records delivered cross-LP sends in send order; a rollback
	// truncates it and turns the suffix into anti-messages. outBase
	// counts entries already fossil-collected off the front.
	outLog  []Event
	outBase uint64
	// free holds model snapshots the kernel has discarded — fossil-
	// collected or cut off by a rollback — for Save to reuse.
	free []any
}

// release returns the model snapshots of snaps to the free list. The
// entries themselves are left as they are: any snapshot they still
// reference is on the free list or live, so nothing is kept alive that
// the LP will not use again.
func (o *optLP) release(snaps []optSnap) {
	for j := range snaps {
		if s := snaps[j].state; s != nil {
			o.free = append(o.free, s)
		}
	}
}

// The optimistic core is Time Warp with a bounded speculation window.
// Each round: GVT is the minimum pending head time (all sends are
// delivered at barriers, so there are no in-transit messages to account
// for); snapshots and send logs strictly below GVT are fossil-
// collected, since no straggler or anti-message can ever target them
// (every future arrival carries a timestamp of at least GVT +
// lookahead); then every LP with work below GVT + window speculates
// forward in parallel, checkpointing before each event. The barrier
// delivers the round's sends, rolls back any LP that received a
// straggler (an event ordered before something it already processed),
// and cancels the rolled-back speculation's sends with anti-messages,
// cascading — deterministically, in LP index order — to a fixed point.
// The window bounds every cascade: nothing can be rolled back below
// GVT, and nothing was speculated above GVT + window, per the
// bounded-window discipline for cascade-rollback control. The driver
// (drive.go) runs the rounds; speculate is one worker's share of one,
// and cascade runs on worker 0 alone.
//
// The event at the global minimum key is never rolled back (stragglers
// arrive at GVT + lookahead at the earliest), so every round commits at
// least one event and the core terminates exactly like the others.

// speculate is worker j's drain phase of an optimistic round: fossil-
// collect its block below gvt, speculate every LP with work below
// gvt + window, and log and bucket their sends.
func (d *driver) speculate(j int, gvt float64) {
	k := d.k
	bound := gvt + d.window
	for i := d.lo[j]; i < d.lo[j+1]; i++ {
		r := &k.lps[i]
		o := &d.opt[i]
		o.fossil(gvt)
		h := r.pq.head()
		if h == nil || h.Time >= bound || h.Time > k.until {
			continue
		}
		k.drainSpec(r, o, bound, &d.ws[j].cur)
		o.outLog = append(o.outLog, r.ctx.out...)
		d.post(j, &r.ctx)
	}
}

// drainSpec is drainWindow with a checkpoint before every event: the
// speculative per-LP loop of the optimistic core, handing each event
// to the LP in cur. Each checkpoint recycles a snapshot the LP
// returned earlier and the kernel has since discarded, so Save
// allocates only while the LP's live snapshot count is growing.
func (k *kernel) drainSpec(r *lpRun, o *optLP, bound float64, cur *Event) {
	c := &r.ctx
	for {
		h := r.pq.head()
		if h == nil || h.Time >= bound || h.Time > k.until {
			return
		}
		*cur = r.pq.pop()
		var reuse any
		if n := len(o.free); n > 0 {
			reuse = o.free[n-1]
			o.free = o.free[:n-1]
		}
		o.snaps = append(o.snaps, optSnap{
			state:     r.lp.Save(reuse),
			rand:      c.rand,
			now:       c.now,
			sendSeq:   c.sendSeq,
			processed: c.processed,
			recLen:    len(c.rec),
			// This round's sends reach outLog only when the LP's drain
			// ends, before any rollback can happen, so they count.
			outLen: o.outBase + uint64(len(o.outLog)) + uint64(len(c.out)),
		})
		o.done = append(o.done, *cur)
		c.commit(cur)
		r.lp.Handle(c, cur)
	}
}

// cascade resolves the round's stragglers and anti-messages to a fixed
// point, single-threaded and in LP index order, so the outcome is
// schedule-independent. Delivery has already flagged every LP that
// received a straggler in dirty.
func (k *kernel) cascade(opt []optLP, dirty []bool) {
	// Cascade to a fixed point: roll back dirty LPs (lowest index
	// first), then annihilate the anti-messages those rollbacks
	// emitted, which may dirty further LPs or force further rollbacks.
	var antis []Event
	for {
		progress := false
		for i := range k.lps {
			if !dirty[i] {
				continue
			}
			dirty[i] = false
			progress = true
			k.rollbackStragglers(i, opt, &antis)
		}
		if len(antis) == 0 {
			if !progress {
				return
			}
			continue
		}
		a := antis[0]
		antis = antis[1:]
		d := int(a.Dst)
		if k.lps[d].pq.removeBySrcSeq(a.Src, a.Seq) {
			continue // annihilated while still pending
		}
		// The positive was already processed: roll the receiver back to
		// just before it (which requeues it), then annihilate it. The
		// scan is linear — done is not key-ordered (see optLP) — and
		// matches on identity, since (Src, Seq) names a send uniquely.
		od := &opt[d]
		idx := -1
		for j := range od.done {
			if od.done[j].Src == a.Src && od.done[j].Seq == a.Seq {
				idx = j
				break
			}
		}
		if idx < 0 {
			panic("psim: anti-message found neither a pending nor a processed positive")
		}
		k.rollbackTo(d, idx, opt, &antis)
		if !k.lps[d].pq.removeBySrcSeq(a.Src, a.Seq) {
			panic("psim: rolled-back positive missing from the requeue")
		}
		dirty[d] = true // requeued events may now precede the new tail
	}
}

// rollbackStragglers unwinds LP i while any pending event precedes a
// processed one, restoring the checkpoint before the first such
// processed event. The scan is linear: processing order is not
// key-ordered (see optLP), so the predicate is not monotone and binary
// search does not apply. Rolling back the processing-order suffix from
// the first key-greater entry is exactly right — entries before it all
// key-precede the straggler and replay identically, while entries after
// it are either key-greater themselves or causal descendants of the
// rollback point (zero-delay self-sends), which the requeue turns into
// phantoms for re-execution to reissue.
func (k *kernel) rollbackStragglers(i int, opt []optLP, antis *[]Event) {
	o := &opt[i]
	for {
		h := k.lps[i].pq.head()
		if h == nil || len(o.done) == 0 {
			return
		}
		idx := -1
		for j := range o.done {
			if localLess(h, &o.done[j]) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return
		}
		k.rollbackTo(i, idx, opt, antis)
	}
}

// rollbackTo restores LP i to the checkpoint taken before done[idx]:
// model state, context, and trace are rewound; the undone events are
// requeued; sends made after the checkpoint become anti-messages.
func (k *kernel) rollbackTo(i, idx int, opt []optLP, antis *[]Event) {
	r := &k.lps[i]
	c := &r.ctx
	o := &opt[i]
	sn := &o.snaps[idx]
	r.lp.Restore(sn.state)
	c.rand = sn.rand
	c.now = sn.now
	c.sendSeq = sn.sendSeq
	c.processed = sn.processed
	c.rec = c.rec[:sn.recLen]
	// Requeue the undone deliveries — except the LP's own phantom
	// self-sends (Seq at or beyond the restored send sequence): those
	// were issued by the execution being undone, and re-execution will
	// reissue them. Ones still pending in the queue are purged the same
	// way; cross-LP phantoms are cancelled by the anti-messages below.
	for j := idx; j < len(o.done); j++ {
		e := &o.done[j]
		if e.Src == c.id && e.Seq >= sn.sendSeq {
			continue
		}
		r.pq.push(e)
	}
	r.pq.removePhantoms(c.id, sn.sendSeq)
	k.stats.RolledBack += uint64(len(o.done) - idx)
	k.stats.Rollbacks++
	cut := int(sn.outLen - o.outBase)
	*antis = append(*antis, o.outLog[cut:]...)
	o.outLog = o.outLog[:cut]
	o.done = o.done[:idx]
	// Restore does not retain its argument, so the restored snapshot is
	// as free as the ones after it.
	o.release(o.snaps[idx:])
	o.snaps = o.snaps[:idx]
}

// fossil discards the LP's checkpoints and send logs that no rollback
// can reach: everything strictly below GVT. The committed trace is
// untouched — entries below GVT are final by the same argument.
func (o *optLP) fossil(gvt float64) {
	idx := sort.Search(len(o.done), func(j int) bool {
		return o.done[j].Time >= gvt
	})
	if idx == 0 {
		return
	}
	var keep uint64
	if idx < len(o.snaps) {
		keep = o.snaps[idx].outLen
	} else {
		keep = o.outBase + uint64(len(o.outLog))
	}
	cut := int(keep - o.outBase)
	o.outLog = append(o.outLog[:0], o.outLog[cut:]...)
	o.outBase = keep
	o.done = append(o.done[:0], o.done[idx:]...)
	o.release(o.snaps[:idx])
	o.snaps = append(o.snaps[:0], o.snaps[idx:]...)
}
