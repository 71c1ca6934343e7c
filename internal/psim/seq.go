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
func (k *kernel) runSeq() {
	var q evHeap
	for i := range k.lps {
		// One global queue; the commit log is kept globally too (the
		// per-LP logs of the parallel cores are not needed here). The
		// log itself is allocated by Run before dispatch.
		k.lps[i].ctx.q = &q
		k.lps[i].ctx.recOn = false
	}
	k.boot()
	for {
		h := q.head()
		if h == nil || h.Time > k.until {
			return
		}
		ev := q.pop()
		r := &k.lps[ev.Dst]
		c := &r.ctx
		c.commit(&ev)
		if k.rec != nil {
			k.rec = append(k.rec, Record{Time: ev.Time, Src: ev.Src, Dst: ev.Dst, Kind: ev.Kind, Seq: ev.Seq})
		}
		r.lp.Handle(c, ev)
		// Cross-LP sends were buffered in the LP's outbox; in the
		// sequential core they go straight back into the global queue.
		if len(c.out) > 0 {
			for i := range c.out {
				q.push(&c.out[i])
			}
			c.out = c.out[:0]
		}
	}
}
