package psim

import "math"

// The conservative core is a bounded-lag variant of Chandy–Misra–Bryant
// synchronization. Each round computes, for every LP, its earliest
// input time — the soonest any other LP could still send it something:
// (minimum head time among the other LPs) + lookahead, additionally
// capped by the LP's own head + 2·lookahead (its earliest send, relayed
// straight back — the binding constraint when every other queue is
// empty). An LP may safely process every pending event strictly below
// that bound, in parallel with the others, because nothing that could
// reorder its input can arrive below it. The barrier then delivers the
// round's cross-LP sends and the next round recomputes the bounds — the
// same guarantee CMB null messages provide, paid once per round instead
// of once per channel. The driver (drive.go) runs the rounds; drain is
// one worker's share of one.
//
// Progress needs lookahead > 0 (the caller guarantees it): the LP
// holding the global minimum always clears its bound, so every round
// commits at least one event and the protocol is deadlock-free by
// construction.

// drain is worker j's drain phase of a conservative round: every LP of
// its block with a head below its bound processes its events below the
// bound, and its sends go to the destination buckets. g is the merged
// head summary: LP i's earliest input time is driven by the *other*
// LPs, so the unique holder of the global minimum gets a looser bound
// (it is the laggard — letting it run further is exactly what catches
// it up).
func (d *driver) drain(j int, g headSum) {
	k := d.k
	la := k.cfg.Lookahead
	for i := d.lo[j]; i < d.lo[j+1]; i++ {
		r := &k.lps[i]
		h := r.pq.head()
		if h == nil || h.Time > k.until {
			continue
		}
		bound := g.min1 + la
		if g.count == 1 && i == g.idx {
			// The unique holder of the global minimum hears from the
			// others no earlier than min2 + lookahead — but its own
			// sends can be relayed straight back, so the true earliest
			// input is capped by one round trip: min1 + 2·lookahead.
			// (With min2 = +Inf — every other queue empty — the round
			// trip is the only bound; forgetting it would let this LP
			// run to completion and then be hit by a reply in the past.)
			bound = math.Min(g.min2+la, g.min1+2*la)
		}
		if h.Time < bound {
			r.drainWindow(bound, k.until, &d.ws[j].cur)
			d.post(j, &r.ctx)
		}
	}
}

// drainWindow processes the LP's pending events with Time strictly
// below bound (and no later than until), in local key order, handing
// each to the LP in cur. This is the per-LP event loop of the
// conservative core; it touches nothing outside its own LP and cur.
func (r *lpRun) drainWindow(bound, until float64, cur *Event) {
	c := &r.ctx
	for {
		h := r.pq.head()
		if h == nil || h.Time >= bound || h.Time > until {
			return
		}
		*cur = r.pq.pop()
		c.commit(cur)
		r.lp.Handle(c, cur)
	}
}
