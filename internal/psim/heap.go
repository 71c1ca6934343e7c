package psim

// evHeap is a binary min-heap of events ordered by the canonical global
// key. It stores events by value with hand-rolled sift operations —
// container/heap would box every event through its interface methods,
// and the queue is on the per-event hot path of every core.
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
