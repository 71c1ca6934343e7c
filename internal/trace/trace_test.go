package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
)

// ringProg requests service from the next node around the ring
// cycles times, computing before each request, then halts.
type ringProg struct {
	compute  float64
	cycles   int
	done     int
	awaiting bool
}

func (p *ringProg) Next(v *machine.NodeView) machine.Action {
	if p.awaiting {
		p.awaiting = false
		return machine.Request((v.Self()+1)%v.N(), 0, 0)
	}
	if p.done == p.cycles {
		return machine.Halt()
	}
	p.done++
	p.awaiting = true
	return machine.Compute(p.compute)
}

func (p *ringProg) Save(any) any { return nil }
func (p *ringProg) Restore(any)  {}

// runShard runs p nodes of ringProg on the sequential core with tr
// attached.
func runShard(t *testing.T, tr *Tracer, p int, compute float64) {
	t.Helper()
	progs := make([]machine.Program, p)
	for i := range progs {
		progs[i] = &ringProg{compute: compute, cycles: 5}
	}
	if _, err := machine.Run(machine.Config{
		P:        p,
		Latency:  dist.NewDeterministic(40),
		Services: []dist.Distribution{dist.NewDeterministic(100)},
		Programs: progs,
		Seed:     1,
		Observer: tr,
	}); err != nil {
		t.Fatal(err)
	}
}

// runTraced drives a small blocking-request workload with a tracer
// attached and returns the tracer.
func runTraced(t *testing.T, maxEvents int) *Tracer {
	t.Helper()
	tr := &Tracer{MaxEvents: maxEvents}
	runShard(t, tr, 4, 0)
	return tr
}

func TestTraceProducesValidJSON(t *testing.T) {
	tr := runTraced(t, 0)
	if tr.Len() == 0 {
		t.Fatal("no events collected")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(events) <= tr.Len() {
		t.Errorf("expected metadata events in addition to %d collected", tr.Len())
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	for _, ph := range []string{"X", "s", "f", "M"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace", ph)
		}
	}
	// Flow starts and ends pair up.
	if phases["s"] != phases["f"] {
		t.Errorf("flow starts %d != flow ends %d", phases["s"], phases["f"])
	}
}

func TestTraceHandlerSlicesDoNotOverlapPerNode(t *testing.T) {
	tr := runTraced(t, 0)
	type slice struct{ ts, dur float64 }
	byNode := map[int][]slice{}
	for _, e := range tr.events {
		if e.Phase == "X" && e.Tid == tidHandler {
			byNode[e.Pid] = append(byNode[e.Pid], slice{e.Ts, e.Dur})
		}
	}
	if len(byNode) == 0 {
		t.Fatal("no handler slices")
	}
	for node, ss := range byNode {
		sort.Slice(ss, func(i, j int) bool { return ss[i].ts < ss[j].ts })
		for i := 1; i < len(ss); i++ {
			if ss[i].ts < ss[i-1].ts+ss[i-1].dur-1e-9 {
				t.Fatalf("node %d: handler slices overlap: %v then %v", node, ss[i-1], ss[i])
			}
		}
	}
}

func TestTraceThreadSlicesPositive(t *testing.T) {
	tr := &Tracer{}
	runShard(t, tr, 2, 50)
	found := false
	for _, e := range tr.events {
		if e.Tid == tidThread && e.Phase == "X" {
			found = true
			if e.Dur <= 0 {
				t.Errorf("non-positive thread slice: %+v", e)
			}
		}
	}
	if !found {
		t.Error("no thread slices recorded")
	}
}

func TestTraceTruncation(t *testing.T) {
	tr := runTraced(t, 10)
	if tr.Len() != 10 {
		t.Fatalf("len = %d, want capped at 10", tr.Len())
	}
	if !tr.Truncated() {
		t.Fatal("tracer did not report truncation")
	}
}

func TestTraceMessageIDsUnique(t *testing.T) {
	tr := runTraced(t, 0)
	seen := map[string]int{}
	for _, e := range tr.events {
		if e.Phase == "s" {
			seen[e.ID]++
		}
	}
	for id, count := range seen {
		if count != 1 {
			t.Errorf("flow id %s started %d times", id, count)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no flow ids recorded")
	}
}
