package psim

// evHeap is a binary min-heap of events ordered by the canonical global
// key. It stores events by value with hand-rolled sift operations —
// container/heap would box every event through its interface methods,
// and the queue is on the per-event hot path of every core. It is the
// per-LP queue of the parallel cores, which holds one to three events;
// the sequential core's global queue is the keyQueue below.
type evHeap struct {
	a []Event
}

func (h *evHeap) len() int { return len(h.a) }

// head returns the minimum event, or nil when empty. The pointer is
// into the heap's backing array and is invalidated by the next
// push/pop.
func (h *evHeap) head() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return &h.a[0]
}

func (h *evHeap) push(ev *Event) {
	h.a = append(h.a, *ev)
	h.siftUp(len(h.a) - 1)
}

func (h *evHeap) pop() Event {
	a := h.a
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	h.a = a[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *evHeap) siftUp(i int) {
	a := h.a
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&a[i], &a[parent]) {
			return
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *evHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && eventLess(&a[right], &a[left]) {
			min = right
		}
		if !eventLess(&a[min], &a[i]) {
			return
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}

// removePhantoms deletes every event sent by src with Seq >= minSeq —
// the optimistic core's direct cancellation of an LP's own rolled-back
// self-sends. (Cross-LP sends are cancelled by anti-messages instead;
// self-sends never leave the LP, so the rolled-back sender can simply
// drop them: restoring sendSeq guarantees re-execution reissues the
// same sequence numbers.) Filters in place and re-heapifies.
func (h *evHeap) removePhantoms(src int32, minSeq uint64) {
	a := h.a
	keep := a[:0]
	for i := range a {
		if a[i].Src == src && a[i].Seq >= minSeq {
			continue
		}
		keep = append(keep, a[i])
	}
	if len(keep) == len(a) {
		return
	}
	h.a = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// removeBySrcSeq deletes the event with the given (Src, Seq) identity,
// reporting whether it was present — the anti-message annihilation
// primitive of the optimistic core. Linear scan: pending queues are
// short relative to the committed stream, and annihilation is off the
// hot path.
func (h *evHeap) removeBySrcSeq(src int32, seq uint64) bool {
	a := h.a
	for i := range a {
		if a[i].Src == src && a[i].Seq == seq {
			last := len(a) - 1
			a[i] = a[last]
			h.a = a[:last]
			if i < last {
				h.siftDown(i)
				h.siftUp(i)
			}
			return true
		}
	}
	return false
}

// evKey is one entry of keyQueue's heap: the event's time and its slot
// in the slab. At 16 bytes it is a fifth of an Event, which is what a
// sift moves.
type evKey struct {
	time float64
	slot int
}

// keyQueue is the sequential core's global pending-event queue: a
// binary min-heap of (time, slot) keys over a slab of events with a
// free list. Sifting moves keys, never events, and a comparison reads
// the slab only when two times tie, where it falls back to eventLess,
// so the order is exactly the canonical (Time, Dst, Src, Seq) order.
// The global queue holds about one event per node (26 at a pop, on
// average, over the Fig 5-2 runs at P = 32), and about one comparison
// in nine is a time tie there.
type keyQueue struct {
	keys []evKey
	slab []Event
	free []int // slab slots not holding a pending event
}

// less is eventLess on the events two keys name.
func (q *keyQueue) less(a, b evKey) bool {
	//lopc:allow floateq exact tie detection, as in eventLess
	if a.time != b.time {
		return a.time < b.time
	}
	return eventLess(&q.slab[a.slot], &q.slab[b.slot])
}

// head returns the minimum event, or nil when empty. The pointer is
// into the slab and is invalidated by the next push or pop.
func (q *keyQueue) head() *Event {
	if len(q.keys) == 0 {
		return nil
	}
	return &q.slab[q.keys[0].slot]
}

// push copies ev into a free slot and sifts its key up, moving the
// hole rather than swapping.
func (q *keyQueue) push(ev *Event) {
	var s int
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[s] = *ev
	} else {
		s = len(q.slab)
		q.slab = append(q.slab, *ev)
	}
	k := evKey{time: ev.Time, slot: s}
	keys := append(q.keys, k)
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(k, keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
	q.keys = keys
}

// pop removes the minimum event and returns a pointer to it in the
// slab. Its slot is free again, so the pointer stays valid only until
// the next push. The queue must not be empty.
func (q *keyQueue) pop() *Event {
	keys := q.keys
	top := keys[0]
	last := len(keys) - 1
	k := keys[last]
	keys = keys[:last]
	if last > 0 {
		i := 0
		for {
			left := 2*i + 1
			if left >= last {
				break
			}
			m := left
			if right := left + 1; right < last && q.less(keys[right], keys[left]) {
				m = right
			}
			if !q.less(keys[m], k) {
				break
			}
			keys[i] = keys[m]
			i = m
		}
		keys[i] = k
	}
	q.keys = keys
	q.free = append(q.free, top.slot)
	return &q.slab[top.slot]
}
