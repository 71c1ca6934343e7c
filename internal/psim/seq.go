package psim

// runSeq is the sequential algorithm: one global queue, always popping
// the minimum-key pending event. It is the determinism oracle the
// parallel cores are checked against, and the fallback every core uses
// when parallelism is structurally unavailable (one LP, or zero
// lookahead).
//
// Commit order here is the canonical dynamic replay: each pop takes the
// smallest key among events that exist at that moment. That is not
// always globally key-sorted — a zero-delay self-send is created by its
// generator and so commits after it even when its key is smaller —
// which is why finish() sorts the trace into key order before
// serializing it. The parallel cores reproduce the identical committed
// set, so the sorted serializations coincide byte for byte.
//
// Handlers get a pointer into the queue's slab: nothing is pushed while
// a handler runs, because every send, self-sends included, waits in an
// outbox until Handle returns. Push order does not matter — keys are
// unique — so that changes no commit. One handler runs at a time, so
// every LP shares one outbox.
func (k *kernel) runSeq() {
	var q keyQueue
	var out []Event
	for i := range k.lps {
		// The commit log is kept globally (the per-LP logs of the
		// parallel cores are not needed here). The log itself is
		// allocated by Run before dispatch.
		r := &k.lps[i]
		r.ctx.recOn = false
		r.ctx.out = out
		r.lp.Start(&r.ctx)
		out = q.pushOut(&r.ctx)
	}
	for {
		h := q.head()
		if h == nil || h.Time > k.until {
			return
		}
		ev := q.pop()
		r := &k.lps[ev.Dst]
		c := &r.ctx
		c.commit(ev)
		if k.rec != nil {
			k.rec = append(k.rec, Record{Time: ev.Time, Src: ev.Src, Dst: ev.Dst, Kind: ev.Kind, Seq: ev.Seq})
		}
		c.out = out
		r.lp.Handle(c, ev)
		out = q.pushOut(c)
	}
}

// pushOut queues an LP's outbox and returns it emptied, for reuse.
func (q *keyQueue) pushOut(c *Ctx) []Event {
	for i := range c.out {
		q.push(&c.out[i])
	}
	c.out = c.out[:0]
	return c.out
}
