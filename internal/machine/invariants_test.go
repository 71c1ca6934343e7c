package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
)

// pingProgram performs the canonical blocking request cycle of the LoPC
// model: compute W, send a request to a destination, block until the
// reply unblocks the thread. It records cycle completion times.
type pingProgram struct {
	NoSnapshot
	w          float64
	dest       func(v *NodeView) int
	cycles     int
	done       int
	inCycle    bool
	halted     bool
	cycleTimes []float64 // completion timestamps
}

func (p *pingProgram) Next(v *NodeView) Action {
	if p.inCycle {
		// The blocking request completed (we were unblocked).
		p.inCycle = false
		p.done++
		p.cycleTimes = append(p.cycleTimes, v.Now())
		if p.done >= p.cycles {
			p.halted = true
			return Halt()
		}
	}
	if p.w > 0 {
		p.w = -p.w // negative marks "work already issued this cycle"
		return Compute(-p.w)
	}
	p.w = -p.w
	p.inCycle = true
	return Request(p.dest(v), 0, 0)
}

// newPing builds a pingProgram issuing Compute(w) then a blocking
// request each cycle.
func newPing(w float64, cycles int, dest func(v *NodeView) int) *pingProgram {
	return &pingProgram{w: w, dest: dest, cycles: cycles}
}

// uniformPeer draws a uniformly random node other than the caller's.
func uniformPeer(v *NodeView) int {
	d := v.Rand().Intn(v.N() - 1)
	if d >= v.Self() {
		d++
	}
	return d
}

// progFunc adapts a function to Program for runs that never go
// optimistic.
type progFunc func(v *NodeView) Action

func (f progFunc) Next(v *NodeView) Action { return f(v) }
func (progFunc) Save(any) any              { return nil }
func (progFunc) Restore(any)               {}

// hookFunc adapts a function to Hook.
type hookFunc func(v *NodeView, m Message)

func (f hookFunc) Done(v *NodeView, m Message) { f(v, m) }

// mustRun runs cfg on the sequential core and fails the test on error.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// det is a deterministic distribution of d cycles.
func det(d float64) dist.Distribution { return dist.NewDeterministic(d) }

func TestContentionFreeCycleIsExact(t *testing.T) {
	// One client, one server, deterministic everything: each cycle must
	// take exactly W + 2St + 2So (Figure 4-2's contention-free timeline).
	const (
		w  = 1000.0
		st = 40.0
		so = 200.0
	)
	prog := newPing(w, 5, func(*NodeView) int { return 1 })
	mustRun(t, Config{P: 2, Latency: det(st), Services: []dist.Distribution{det(so)},
		Programs: []Program{prog, nil}, Seed: 1})
	want := w + 2*st + 2*so
	if len(prog.cycleTimes) != 5 {
		t.Fatalf("completed %d cycles, want 5", len(prog.cycleTimes))
	}
	prev := 0.0
	for i, tc := range prog.cycleTimes {
		if got := tc - prev; math.Abs(got-want) > 1e-9 {
			t.Fatalf("cycle %d took %v, want exactly %v", i, got, want)
		}
		prev = tc
	}
}

func TestHaltedCountAndTermination(t *testing.T) {
	progs := make([]Program, 4)
	pings := make([]*pingProgram, 4)
	for i := range progs {
		pings[i] = newPing(50, 3, func(v *NodeView) int { return (v.Self() + 1) % 4 })
		progs[i] = pings[i]
	}
	mustRun(t, Config{P: 4, Latency: det(10), Services: []dist.Distribution{det(20)}, Programs: progs, Seed: 2})
	for i, p := range pings {
		if !p.halted || p.done != 3 {
			t.Fatalf("node %d completed %d cycles (halted %v), want 3 and halted", i, p.done, p.halted)
		}
	}
}

// handlerLog records every request handler's service interval per
// node, in completion order, from the run's observer.
type handlerLog [][]Observation

func (l handlerLog) Observe(o Observation) {
	if o.Kind == ObsHandler && o.Msg == KindRequest {
		l[o.Node] = append(l[o.Node], o)
	}
}

// runAllToAll runs p ping nodes to uniformly random peers and returns
// the result with each node's request handler log.
func runAllToAll(t *testing.T, p int, w, st, so float64, cycles int, seed uint64, pp bool) (Result, handlerLog) {
	t.Helper()
	log := make(handlerLog, p)
	progs := make([]Program, p)
	for i := range progs {
		progs[i] = newPing(w, cycles, uniformPeer)
	}
	res := mustRun(t, Config{P: p, Latency: det(st), Services: []dist.Distribution{det(so)},
		Programs: progs, ProtocolProcessor: pp, Seed: seed, Observer: log})
	return res, log
}

func TestHandlerAtomicityAndFIFO(t *testing.T) {
	_, byNode := runAllToAll(t, 8, 100, 20, 150, 50, 3, false)
	for nodeID, msgs := range byNode {
		if len(msgs) == 0 {
			t.Fatalf("node %d processed no requests", nodeID)
		}
		for i, msg := range msgs {
			if msg.Start < msg.Arrived {
				t.Fatalf("node %d msg %d started service before arrival", nodeID, i)
			}
			if msg.At < msg.Start {
				t.Fatalf("node %d msg %d finished before starting", nodeID, i)
			}
			if i > 0 {
				prev := msgs[i-1]
				// Requests complete in order, and service intervals of
				// *all* handlers on a node never overlap. Replies are
				// interleaved on the same processor, so request i may
				// start after prev.At plus some reply service; it must
				// never start before prev.At.
				if msg.Start < prev.At-1e-9 {
					t.Fatalf("node %d: request %d service [%v,%v] overlaps previous handler ending %v",
						nodeID, i, msg.Start, msg.At, prev.At)
				}
			}
		}
	}
}

func TestHandlerFIFOByArrival(t *testing.T) {
	_, byNode := runAllToAll(t, 8, 100, 20, 150, 50, 3, false)
	for nodeID, msgs := range byNode {
		for i := 1; i < len(msgs); i++ {
			if msgs[i].Arrived < msgs[i-1].Arrived-1e-9 {
				t.Fatalf("node %d: completion order violates FIFO arrival order", nodeID)
			}
		}
	}
}

func TestLittlesLawAndUtilizationLaw(t *testing.T) {
	// In steady state: Qq = λq·Rq per node and Uq = λq·So.
	const (
		p  = 16
		w  = 300.0
		st = 40.0
		so = 200.0
	)
	progs := make([]Program, p)
	for i := range progs {
		progs[i] = newPing(w, 1<<30, uniformPeer)
	}
	res := mustRun(t, Config{P: p, Latency: det(st), Services: []dist.Distribution{dist.NewExponential(so)},
		Programs: progs, Seed: 7, ResetStatsAt: 200_000, Until: 3_200_000})
	s := res.Aggregate()

	lambdaQ := float64(s.ReqArrivals) / float64(p) / s.Elapsed
	wantQ := lambdaQ * s.ReqResponse.Mean()
	if math.Abs(s.ReqQueue-wantQ) > 0.05*wantQ {
		t.Errorf("Little's law (requests): measured Q = %v, λR = %v", s.ReqQueue, wantQ)
	}
	wantU := lambdaQ * so
	if math.Abs(s.UtilReq-wantU) > 0.05*wantU {
		t.Errorf("utilization law: measured U = %v, λ·So = %v", s.UtilReq, wantU)
	}
	lambdaY := float64(s.RepArrivals) / float64(p) / s.Elapsed
	wantQy := lambdaY * s.RepResponse.Mean()
	if math.Abs(s.RepQueue-wantQy) > 0.05*math.Max(wantQy, 0.01) {
		t.Errorf("Little's law (replies): measured Q = %v, λR = %v", s.RepQueue, wantQy)
	}
}

// runBusy runs p ping nodes under heavy interference and returns the
// result with the programs.
func runBusy(t *testing.T, cycles int, seed uint64, pp bool) (Result, []*pingProgram) {
	t.Helper()
	const (
		p  = 8
		w  = 500.0
		st = 10.0
		so = 400.0
	)
	progs := make([]Program, p)
	pings := make([]*pingProgram, p)
	for i := range progs {
		pings[i] = newPing(w, cycles, uniformPeer)
		progs[i] = pings[i]
	}
	res := mustRun(t, Config{P: p, Latency: det(st), Services: []dist.Distribution{det(so)},
		Programs: progs, ProtocolProcessor: pp, Seed: seed})
	return res, pings
}

func TestPreemptResumeConservesWork(t *testing.T) {
	// Under heavy interference, each thread's measured busy time must
	// equal the work it issued: preemption banks and restores exactly.
	const cycles = 40
	res, _ := runBusy(t, cycles, 11, false)
	for i, ns := range res.Nodes {
		busy := ns.ThreadUtil * ns.Elapsed
		want := 500.0 * cycles
		if math.Abs(busy-want) > 1e-6*want {
			t.Errorf("node %d thread busy time %v, want exactly %v", i, busy, want)
		}
	}
}

func TestProtocolProcessorNeverPreempts(t *testing.T) {
	// In shared-memory (PP) mode the thread runs its W cycles in
	// exactly W wall-clock time even under heavy handler traffic.
	const (
		w  = 500.0
		st = 10.0
		so = 400.0
	)
	res, progs := runBusy(t, 30, 13, true)
	// With no preemption, every cycle is exactly W + 2St + Rq + Ry where
	// Rq, Ry >= So. So every cycle >= W+2St+2So, and thread busy time is
	// contiguous. Verify the stronger structural property: total busy
	// time equals issued work (as in the preempt test) *and* the busy
	// gauge never flipped more often than twice per cycle.
	for i, ns := range res.Nodes {
		busy := ns.ThreadUtil * ns.Elapsed
		want := w * 30
		if math.Abs(busy-want) > 1e-6*want {
			t.Errorf("node %d thread busy time %v, want %v", i, busy, want)
		}
	}
	// And each cycle is at least the contention-free time.
	minCycle := w + 2*st + 2*so
	for i, prog := range progs {
		prev := 0.0
		for c, tc := range prog.cycleTimes {
			if tc-prev < minCycle-1e-9 {
				t.Errorf("node %d cycle %d took %v < contention-free %v", i, c, tc-prev, minCycle)
			}
			prev = tc
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		res, _ := runAllToAll(t, 8, 200, 30, 100, 20, 42, false)
		return res.Run.MaxTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different end times: %v vs %v", a, b)
	}
}

func TestSeedChangesTrace(t *testing.T) {
	r1, _ := runAllToAll(t, 8, 200, 30, 100, 20, 1, false)
	r2, _ := runAllToAll(t, 8, 200, 30, 100, 20, 2, false)
	if r1.Run.MaxTime == r2.Run.MaxTime {
		t.Fatalf("different seeds gave identical end times %v (suspicious)", r1.Run.MaxTime)
	}
}

// sender returns a program that Sends n request messages to dst
// (tagged 0..n-1) and halts.
func sender(dst, n int) Program {
	sent := 0
	return progFunc(func(*NodeView) Action {
		if sent == n {
			return Halt()
		}
		sent++
		return Send(dst, Message{Kind: KindRequest, Tag: uint64(sent - 1)})
	})
}

func TestSendAsyncDoesNotBlock(t *testing.T) {
	// A program that sends k async messages then halts: all messages are
	// eventually handled even though the thread never blocks.
	const k = 5
	handled := 0
	mustRun(t, Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(10)},
		Programs: []Program{sender(1, k), nil},
		Hooks:    []Hook{nil, hookFunc(func(*NodeView, Message) { handled++ })}, Seed: 3})
	if handled != k {
		t.Fatalf("handled %d messages, want %d", handled, k)
	}
}

func TestAsyncSendsQueueFCFS(t *testing.T) {
	// Messages sent back-to-back over a deterministic network must be
	// served in order at the destination.
	var doneOrder []int
	mustRun(t, Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(10)},
		Programs: []Program{sender(1, 4), nil},
		Hooks:    []Hook{nil, hookFunc(func(_ *NodeView, m Message) { doneOrder = append(doneOrder, int(m.Tag)) })}, Seed: 3})
	for i, id := range doneOrder {
		if id != i {
			t.Fatalf("completion order %v, want FIFO", doneOrder)
		}
	}
}

func TestUnblockPanicsWhenNotBlocked(t *testing.T) {
	// Node 0's thread is computing (preempted, not blocked) when node
	// 1's message completes there and its hook tries to wake it.
	cfg := Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(10)},
		Programs: []Program{newPing(100, 1, func(*NodeView) int { return 1 }), sender(0, 1)},
		Hooks:    []Hook{hookFunc(func(v *NodeView, _ Message) { v.Wake(0) }), nil}, Seed: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("Wake of a non-blocked thread did not panic")
		}
	}()
	_, _ = Run(cfg)
}

func TestSendToInvalidNodePanics(t *testing.T) {
	cfg := Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(1)},
		Programs: []Program{sender(9, 1), nil}, Seed: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("send to node 9 did not panic")
		}
	}()
	_, _ = Run(cfg)
}

func TestComputeRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compute(-1) did not panic")
		}
	}()
	Compute(-1)
}

func TestKindString(t *testing.T) {
	if KindRequest.String() != "request" || KindReply.String() != "reply" {
		t.Fatal("Kind.String outputs wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown Kind has empty String")
	}
}

func TestThreadStateString(t *testing.T) {
	states := []threadState{threadIdle, threadReady, threadRunning, threadBlocked, threadHalted, threadState(99)}
	for _, s := range states {
		if s.String() == "" {
			t.Fatalf("threadState(%d) has empty String", s)
		}
	}
}

func TestZeroComputeLoopGuard(t *testing.T) {
	cfg := Config{P: 1, Latency: det(1), Programs: []Program{progFunc(func(*NodeView) Action { return Compute(0) })}, Seed: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("infinite zero-cost program did not panic")
		}
	}()
	_, _ = Run(cfg)
}

func TestBlockAction(t *testing.T) {
	// A thread can block without sending; a handler unblocks it.
	var resumedAt float64
	step := 0
	blocker := progFunc(func(v *NodeView) Action {
		switch step {
		case 0:
			step++
			return Block()
		default:
			resumedAt = v.Now()
			return Halt()
		}
	})
	mustRun(t, Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(10)},
		Programs: []Program{blocker, sender(0, 1)},
		Hooks:    []Hook{hookFunc(func(v *NodeView, _ Message) { v.Wake(0) }), nil}, Seed: 1})
	if resumedAt != 15 { // 5 latency + 10 handler
		t.Fatalf("blocked thread resumed at %v, want 15", resumedAt)
	}
}

func TestMaxQueueDepth(t *testing.T) {
	// Three simultaneous arrivals at an idle node: depth peaks at 3.
	res := mustRun(t, Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(100)},
		Programs: []Program{sender(1, 3), nil}, Seed: 1})
	if got := res.Nodes[1].MaxQueueDepth; got != 3 {
		t.Fatalf("max queue depth = %d, want 3", got)
	}
	if got := res.Aggregate().MaxQueueDepth; got != 3 {
		t.Fatalf("machine max queue depth = %d, want 3", got)
	}
}

func TestMaxQueueDepthSurvivesReset(t *testing.T) {
	// The reset at t=1000 comes after both handlers have drained.
	res := mustRun(t, Config{P: 2, Latency: det(5), Services: []dist.Distribution{det(50)},
		Programs: []Program{sender(1, 2), nil}, Seed: 1, ResetStatsAt: 1000})
	if got := res.Nodes[1].MaxQueueDepth; got != 2 {
		t.Fatalf("max queue depth after reset = %d, want 2 (not reset)", got)
	}
}

func TestMultipleThreadsRunUntilBlock(t *testing.T) {
	// Thread scheduling is switch-on-miss (Sparcle-style): a thread
	// keeps the CPU across consecutive Computes and yields only when it
	// blocks or halts. Thread a runs both its computes to completion
	// before b starts.
	var trace []string
	mk := func(name string, d float64, reps int) Program {
		n := 0
		return progFunc(func(v *NodeView) Action {
			if n > 0 {
				trace = append(trace, fmt.Sprintf("%s@%v", name, v.Now()))
			}
			if n == reps {
				return Halt()
			}
			n++
			return Compute(d)
		})
	}
	mustRun(t, Config{P: 1, Latency: det(1), Threads: [][]Program{{mk("a", 100, 2), mk("b", 50, 2)}}, Seed: 1})
	want := []string{"a@100", "a@200", "b@250", "b@300"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// mtPing is a thread-aware ping program: compute, send a request
// carrying the thread's id to node 1, and block until the reply's hook
// wakes that thread.
type mtPing struct {
	NoSnapshot
	w       float64
	cycles  int
	done    int
	inCycle bool
	sent    bool
}

func (p *mtPing) Next(v *NodeView) Action {
	if p.sent {
		p.sent = false
		return Block()
	}
	if p.inCycle {
		p.inCycle = false
		p.done++
		if p.done >= p.cycles {
			return Halt()
		}
	}
	if p.w > 0 {
		p.w = -p.w
		return Compute(-p.w)
	}
	p.w = -p.w
	p.inCycle, p.sent = true, true
	return Send(1, Message{Kind: KindRequest, Thread: v.Thread()})
}

// pingHook answers requests with a reply for the same thread and wakes
// the thread a reply is for.
var pingHook = hookFunc(func(v *NodeView, m Message) {
	if m.Kind == KindRequest {
		m.Kind = KindReply
		v.Send(m.Src, m)
		return
	}
	v.Wake(m.Thread)
})

func TestMultithreadLatencyHiding(t *testing.T) {
	// Two threads pinging a remote server overlap their round trips:
	// the node completes cycles at nearly twice the single-thread rate
	// when the CPU is mostly idle waiting.
	run := func(threads int) (cycles int, elapsed float64) {
		progs := make([]Program, threads)
		pings := make([]*mtPing, threads)
		for j := range progs {
			pings[j] = &mtPing{w: 50, cycles: 40}
			progs[j] = pings[j]
		}
		res := mustRun(t, Config{P: 2, Latency: det(200), Services: []dist.Distribution{det(30)},
			Threads: [][]Program{progs, nil}, Hooks: []Hook{pingHook, pingHook}, Seed: 1})
		for j, p := range pings {
			if p.done != 40 {
				t.Fatalf("thread %d of %d completed %d cycles, want 40", j, threads, p.done)
			}
		}
		return threads * 40, res.Run.MaxTime
	}
	c1, e1 := run(1)
	c2, e2 := run(2)
	r1 := float64(c1) / e1
	r2 := float64(c2) / e2
	if r2 < 1.7*r1 {
		t.Fatalf("two threads rate %v not ~2x single rate %v", r2, r1)
	}
}

func TestPreemptedThreadResumesFirst(t *testing.T) {
	// A preempted thread must regain the CPU before other ready threads
	// (preempt-resume), even when a sibling was already queued.
	var order []string
	stepA, stepB := 0, 0
	a := progFunc(func(v *NodeView) Action {
		stepA++
		if stepA == 1 {
			return Compute(100) // preempted at t=10
		}
		order = append(order, fmt.Sprintf("a@%v", v.Now()))
		return Halt()
	})
	b := progFunc(func(v *NodeView) Action {
		stepB++
		if stepB == 1 {
			return Compute(1) // queued behind a
		}
		order = append(order, fmt.Sprintf("b@%v", v.Now()))
		return Halt()
	})
	// Node 1's message lands at t=10, preempting thread a, which has 90
	// cycles left. After the 30-cycle handler [10,40], a resumes and
	// finishes at 130; then b runs [130,131].
	mustRun(t, Config{P: 2, Latency: det(10), Services: []dist.Distribution{det(30)},
		Threads: [][]Program{{a, b}, {sender(0, 1)}}, Seed: 1})
	want := []string{"a@130", "b@131"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSoakMillionsOfEvents is a long-run stability check: a 64-node
// machine processing several million events must complete, keep its
// statistics consistent, and never let the handler queue integrate
// negatively.
func TestSoakMillionsOfEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const p = 64
	progs := make([]Program, p)
	pings := make([]*pingProgram, p)
	for i := range progs {
		pings[i] = newPing(120, 6000, uniformPeer)
		progs[i] = pings[i]
	}
	res := mustRun(t, Config{P: p, Latency: dist.NewExponential(30),
		Services: []dist.Distribution{dist.NewExponential(90)}, Programs: progs, Seed: 31})
	for i, pg := range pings {
		if !pg.halted {
			t.Fatalf("node %d did not halt", i)
		}
	}
	if res.Run.Events < 1_000_000 {
		t.Fatalf("processed only %d events", res.Run.Events)
	}
	s := res.Aggregate()
	if s.ReqQueue < 0 || s.RepQueue < 0 || s.UtilReq < 0 || s.UtilReq > 1 {
		t.Fatalf("inconsistent aggregate stats: %+v", s)
	}
	if s.ReqArrivals != int64(p*6000) {
		t.Fatalf("request arrivals %d, want %d", s.ReqArrivals, p*6000)
	}
}
