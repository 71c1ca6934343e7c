// Package trace records a machine simulation as a Chrome trace (the
// JSON format consumed by chrome://tracing and Perfetto), so the
// interleaving of computation threads, handler service, and message
// flights can be inspected visually.
//
// Each simulated node is rendered as a process with two tracks: the
// computation thread and the handler processor. Handler service and
// thread execution appear as complete ("X") slices; each message's
// flight from injection to handler start is a flow arrow ("s"/"f").
// Times are emitted in microseconds with one simulated cycle mapped to
// one microsecond.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/machine"
)

// Track ids within each node's process.
const (
	tidThread  = 1
	tidHandler = 2
)

// Event is one Chrome trace event. Field names follow the Trace Event
// Format specification.
type Event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer implements machine.Observer, accumulating events in memory.
// Attach it as the Observer of a sequential all-to-all run, run the
// simulation, then call WriteJSON. The zero value is ready to use.
type Tracer struct {
	events []Event
	// MaxEvents caps collection (0 = unlimited); traces of long runs
	// otherwise grow without bound. Once the cap is reached further
	// events are dropped and Truncated reports true.
	MaxEvents int
	truncated bool
}

// Truncated reports whether the tracer hit MaxEvents and dropped
// events.
func (t *Tracer) Truncated() bool { return t.truncated }

// Len returns the number of collected events.
func (t *Tracer) Len() int { return len(t.events) }

func (t *Tracer) add(e Event) {
	if t.MaxEvents > 0 && len(t.events) >= t.MaxEvents {
		t.truncated = true
		return
	}
	t.events = append(t.events, e)
}

// Observe implements machine.Observer: message sends and arrivals become
// the two ends of a flow arrow, handler service and thread execution
// become complete slices.
func (t *Tracer) Observe(o machine.Observation) {
	switch o.Kind {
	case machine.ObsSent, machine.ObsArrived:
		e := Event{
			Name: o.Msg.String(), Phase: "s", Ts: o.At,
			Pid: o.Node, Tid: tidHandler,
			ID: fmt.Sprintf("msg%d.%d", o.Src, o.Seq), Cat: "net",
		}
		if o.Kind == machine.ObsArrived {
			e.Phase, e.BP = "f", "e"
		}
		t.add(e)
	case machine.ObsHandler:
		t.add(Event{
			Name: o.Msg.String() + " handler", Phase: "X",
			Ts: o.Start, Dur: o.At - o.Start,
			Pid: o.Node, Tid: tidHandler, Cat: "handler",
			Args: map[string]any{
				"src": o.Src, "dst": o.Dst, "queued": o.Start - o.Arrived,
			},
		})
	case machine.ObsThread:
		t.add(Event{
			Name: "compute", Phase: "X", Ts: o.Start, Dur: o.At - o.Start,
			Pid: o.Node, Tid: tidThread, Cat: "thread",
		})
	}
}

// WriteJSON emits the trace in Chrome's JSON array format, including
// process/thread name metadata so the viewer labels each node.
func (t *Tracer) WriteJSON(w io.Writer) error {
	pids := map[int]bool{}
	for _, e := range t.events {
		pids[e.Pid] = true
	}
	// Emit metadata in sorted pid order: map iteration order would make
	// the trace bytes differ between identical runs.
	ids := make([]int, 0, len(pids))
	for pid := range pids {
		ids = append(ids, pid)
	}
	sort.Ints(ids)
	out := make([]Event, 0, len(t.events)+3*len(ids))
	for _, pid := range ids {
		out = append(out,
			Event{Name: "process_name", Phase: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("node %d", pid)}},
			Event{Name: "thread_name", Phase: "M", Pid: pid, Tid: tidThread,
				Args: map[string]any{"name": "thread"}},
			Event{Name: "thread_name", Phase: "M", Pid: pid, Tid: tidHandler,
				Args: map[string]any{"name": "handlers"}},
		)
	}
	out = append(out, t.events...)
	return writeEvents(w, out)
}

// writeEvents encodes events as Chrome's JSON array format; shared by
// Tracer (simulation traces) and Spans (job/request spans).
func writeEvents(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

var _ machine.Observer = (*Tracer)(nil)
