// Package sim provides a deterministic discrete-event simulation kernel:
// a simulated clock, an event calendar ordered by (time, scheduling
// sequence), and an engine that dispatches events until a stop
// condition.
//
// The LoPC validation substrate (internal/machine) is built on this
// kernel. Determinism matters: events scheduled for the same instant
// fire in scheduling order, so a given seed reproduces the identical
// trace on every run.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated time in processor cycles. It is a float64 because
// the model's service distributions are continuous.
type Time = float64

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; the machine layer uses it to preempt a running computation
// thread.
type Event struct {
	time     Time
	seq      uint64
	index    int // heap index, -1 once removed
	canceled bool
	fn       func()
}

// Time returns the instant the event is scheduled for.
func (e *Event) Time() Time { return e.time }

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	//lopc:allow floateq deterministic tie-break: exactly-simultaneous events order by seq, others by time
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// pop removes and returns the earliest event, nil when empty.
func (q *eventQueue) pop() *Event {
	if len(*q) == 0 {
		return nil
	}
	return heap.Pop(q).(*Event)
}

// peek returns the earliest event without removing it, nil when empty.
func (q eventQueue) peek() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// Engine is a discrete-event simulator. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	events    eventQueue
	processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events in the calendar, including
// canceled events not yet discarded.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule enqueues fn to run after delay. A zero delay fires at the
// current instant, after all events already scheduled for it. It panics
// on negative or NaN delays — those are always simulator bugs, and
// failing loudly at the offending call site beats corrupting the event
// order.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v", delay))
	}
	ev := &Event{time: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// ScheduleAt enqueues fn at the absolute time t, which must not be in
// the past.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is before now (%v)", t, e.now))
	}
	return e.Schedule(t-e.now, fn)
}

// Cancel marks ev so it will not fire. Canceling an event that already
// fired or was already canceled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	// Leave it in the heap; Step discards canceled events cheaply. For
	// the machine workloads, cancellations are rare (thread preemption),
	// so lazy deletion wins over heap.Remove bookkeeping.
}

// Step dispatches the next non-canceled event. It returns false when
// the calendar is empty.
func (e *Engine) Step() bool {
	for {
		ev := e.events.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			continue
		}
		if ev.time < e.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", ev.time, e.now))
		}
		e.now = ev.time
		e.processed++
		ev.fn()
		return true
	}
}

// Run dispatches events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.time > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunWhile dispatches events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// peek returns the next non-canceled event without dispatching it,
// discarding canceled events it encounters.
func (e *Engine) peek() *Event {
	for {
		ev := e.events.peek()
		if ev == nil {
			return nil
		}
		if ev.canceled {
			e.events.pop()
			continue
		}
		return ev
	}
}
