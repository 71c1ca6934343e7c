package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
)

// pingProgram performs the canonical blocking request cycle of the LoPC
// model: compute W, send a request to a destination, block until the
// reply handler unblocks the thread. It records cycle completion times.
type pingProgram struct {
	w          float64
	service    dist.Distribution
	dest       func(m *Machine, self int) int
	cycles     int
	done       int
	inCycle    bool
	cycleTimes []float64 // completion timestamps
}

func (p *pingProgram) Next(m *Machine, self int) Action {
	if p.inCycle {
		// The blocking request completed (we were unblocked).
		p.inCycle = false
		p.done++
		p.cycleTimes = append(p.cycleTimes, m.Now())
		if p.done >= p.cycles {
			return Halt()
		}
	}
	if p.w > 0 {
		p.w = -p.w // negative marks "work already issued this cycle"
		return Compute(-p.w)
	}
	w := -p.w
	p.w = w
	p.inCycle = true
	dst := p.dest(m, self)
	req := &Message{
		Src: self, Dst: dst, Kind: KindRequest, Service: p.service,
		OnComplete: func(m *Machine, msg *Message) {
			rep := &Message{
				Src: msg.Dst, Dst: msg.Src, Kind: KindReply, Service: p.service,
				OnComplete: func(m *Machine, rmsg *Message) { m.Unblock(rmsg.Dst) },
			}
			m.Send(rep)
		},
	}
	return SendAndBlock(req)
}

// newPing builds a pingProgram issuing Compute(w) then a blocking
// request each cycle.
func newPing(w float64, service dist.Distribution, cycles int, dest func(m *Machine, self int) int) *pingProgram {
	return &pingProgram{w: w, service: service, dest: dest, cycles: cycles}
}

func TestContentionFreeCycleIsExact(t *testing.T) {
	// One client, one server, deterministic everything: each cycle must
	// take exactly W + 2St + 2So (Figure 4-2's contention-free timeline).
	const (
		w  = 1000.0
		st = 40.0
		so = 200.0
	)
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(st), Seed: 1})
	prog := newPing(w, dist.NewDeterministic(so), 5, func(*Machine, int) int { return 1 })
	m.SetProgram(0, prog)
	m.Start()
	m.Run()
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
	m := New(Config{P: 4, NetLatency: dist.NewDeterministic(10), Seed: 2})
	progs := make([]*pingProgram, 4)
	for i := 0; i < 4; i++ {
		progs[i] = newPing(50, dist.NewDeterministic(20), 3, func(m *Machine, self int) int {
			return (self + 1) % 4
		})
		m.SetProgram(i, progs[i])
	}
	m.Start()
	m.Run()
	if m.Halted() != 4 {
		t.Fatalf("halted = %d, want 4", m.Halted())
	}
	for i, p := range progs {
		if p.done != 3 {
			t.Fatalf("node %d completed %d cycles, want 3", i, p.done)
		}
	}
}

// collectMessages instruments a run and returns all request messages
// processed at each node, in completion order.
func runAllToAll(t *testing.T, p int, w, st, so float64, cycles int, seed uint64, pp bool) (*Machine, [][]*Message) {
	t.Helper()
	m := New(Config{P: p, NetLatency: dist.NewDeterministic(st), Seed: seed, ProtocolProcessor: pp})
	byNode := make([][]*Message, p)
	for i := 0; i < p; i++ {
		i := i
		prog := newPing(w, dist.NewDeterministic(so), cycles, func(m *Machine, self int) int {
			d := m.Rand(self).Intn(p - 1)
			if d >= self {
				d++
			}
			return d
		})
		m.SetProgram(i, recordingProgram{prog, &byNode})
	}
	m.Start()
	m.Run()
	return m, byNode
}

// recordingProgram wraps pingProgram, recording each request message at
// its destination node for atomicity/FIFO checks.
type recordingProgram struct {
	inner  *pingProgram
	byNode *[][]*Message
}

func (r recordingProgram) Next(m *Machine, self int) Action {
	a := r.inner.Next(m, self)
	if a.kind == actionSendBlock || a.kind == actionSendAsync {
		msg := a.msg
		prev := msg.OnComplete
		msg.OnComplete = func(m *Machine, msg *Message) {
			(*r.byNode)[msg.Dst] = append((*r.byNode)[msg.Dst], msg)
			if prev != nil {
				prev(m, msg)
			}
		}
	}
	return a
}

func TestHandlerAtomicityAndFIFO(t *testing.T) {
	_, byNode := runAllToAll(t, 8, 100, 20, 150, 50, 3, false)
	for nodeID, msgs := range byNode {
		if len(msgs) == 0 {
			t.Fatalf("node %d processed no requests", nodeID)
		}
		for i, msg := range msgs {
			if msg.ServiceStart < msg.Arrived {
				t.Fatalf("node %d msg %d started service before arrival", nodeID, i)
			}
			if msg.Done < msg.ServiceStart {
				t.Fatalf("node %d msg %d finished before starting", nodeID, i)
			}
			if i > 0 {
				prev := msgs[i-1]
				// Requests complete in order, and service intervals of
				// *all* handlers on a node never overlap. Replies are
				// interleaved on the same processor, so request i may
				// start after prev.Done plus some reply service; it must
				// never start before prev.Done.
				if msg.ServiceStart < prev.Done-1e-9 {
					t.Fatalf("node %d: request %d service [%v,%v] overlaps previous handler ending %v",
						nodeID, i, msg.ServiceStart, msg.Done, prev.Done)
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
	m := New(Config{P: p, NetLatency: dist.NewDeterministic(st), Seed: 7})
	for i := 0; i < p; i++ {
		prog := newPing(w, dist.NewExponential(so), 1<<30, func(m *Machine, self int) int {
			d := m.Rand(self).Intn(p - 1)
			if d >= self {
				d++
			}
			return d
		})
		m.SetProgram(i, prog)
	}
	m.Start()
	m.RunUntil(200_000) // warmup
	m.ResetStats()
	m.RunUntil(3_200_000)
	s := m.Stats()

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

func TestPreemptResumeConservesWork(t *testing.T) {
	// Under heavy interference, each thread's measured busy time must
	// equal the work it issued: preemption banks and restores exactly.
	const (
		p  = 8
		w  = 500.0
		st = 10.0
		so = 400.0
	)
	cycles := 40
	m := New(Config{P: p, NetLatency: dist.NewDeterministic(st), Seed: 11})
	for i := 0; i < p; i++ {
		m.SetProgram(i, newPing(w, dist.NewDeterministic(so), cycles, func(m *Machine, self int) int {
			d := m.Rand(self).Intn(p - 1)
			if d >= self {
				d++
			}
			return d
		}))
	}
	m.Start()
	m.Run()
	for i := 0; i < p; i++ {
		ns := m.NodeStats(i)
		busy := ns.ThreadUtil * ns.Elapsed
		want := w * float64(cycles)
		if math.Abs(busy-want) > 1e-6*want {
			t.Errorf("node %d thread busy time %v, want exactly %v", i, busy, want)
		}
	}
}

func TestProtocolProcessorNeverPreempts(t *testing.T) {
	// In shared-memory (PP) mode the thread runs its W cycles in
	// exactly W wall-clock time even under heavy handler traffic.
	const (
		p  = 8
		w  = 500.0
		st = 10.0
		so = 400.0
	)
	m := New(Config{P: p, NetLatency: dist.NewDeterministic(st), Seed: 13, ProtocolProcessor: true})
	progs := make([]*pingProgram, p)
	for i := 0; i < p; i++ {
		progs[i] = newPing(w, dist.NewDeterministic(so), 30, func(m *Machine, self int) int {
			d := m.Rand(self).Intn(p - 1)
			if d >= self {
				d++
			}
			return d
		})
		m.SetProgram(i, progs[i])
	}
	m.Start()
	m.Run()
	// With no preemption, every cycle is exactly W + 2St + Rq + Ry where
	// Rq, Ry >= So. So every cycle >= W+2St+2So, and thread busy time is
	// contiguous. Verify the stronger structural property: total busy
	// time equals issued work (as in the preempt test) *and* the busy
	// gauge never flipped more often than twice per cycle.
	for i := 0; i < p; i++ {
		ns := m.NodeStats(i)
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
		m, _ := runAllToAll(t, 8, 200, 30, 100, 20, 42, false)
		return m.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different end times: %v vs %v", a, b)
	}
}

func TestSeedChangesTrace(t *testing.T) {
	m1, _ := runAllToAll(t, 8, 200, 30, 100, 20, 1, false)
	m2, _ := runAllToAll(t, 8, 200, 30, 100, 20, 2, false)
	if m1.Now() == m2.Now() {
		t.Fatalf("different seeds gave identical end times %v (suspicious)", m1.Now())
	}
}

func TestSendAsyncDoesNotBlock(t *testing.T) {
	// A program that sends k async messages then halts: all messages are
	// eventually handled even though the thread never blocks.
	const k = 5
	handled := 0
	var prog ProgramFunc
	sent := 0
	prog = func(m *Machine, self int) Action {
		if sent == k {
			return Halt()
		}
		sent++
		return SendAsync(&Message{
			Src: 0, Dst: 1, Kind: KindRequest, Service: dist.NewDeterministic(10),
			OnComplete: func(*Machine, *Message) { handled++ },
		})
	}
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 3})
	m.SetProgram(0, prog)
	m.Start()
	m.Run()
	if handled != k {
		t.Fatalf("handled %d messages, want %d", handled, k)
	}
}

func TestAsyncSendsQueueFCFS(t *testing.T) {
	// Messages sent back-to-back over a deterministic network must be
	// served in order at the destination.
	var doneOrder []int
	sent := 0
	prog := ProgramFunc(func(m *Machine, self int) Action {
		if sent == 4 {
			return Halt()
		}
		id := sent
		sent++
		return SendAsync(&Message{
			Src: 0, Dst: 1, Kind: KindRequest, Service: dist.NewDeterministic(10),
			OnComplete: func(*Machine, *Message) { doneOrder = append(doneOrder, id) },
		})
	})
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 3})
	m.SetProgram(0, prog)
	m.Start()
	m.Run()
	for i, id := range doneOrder {
		if id != i {
			t.Fatalf("completion order %v, want FIFO", doneOrder)
		}
	}
}

func TestUnblockPanicsWhenNotBlocked(t *testing.T) {
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("Unblock of a non-blocked thread did not panic")
		}
	}()
	m.Unblock(0)
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{P: 0, NetLatency: dist.NewDeterministic(1)},
		{P: 2, NetLatency: nil},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSendToInvalidNodePanics(t *testing.T) {
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("send to node 9 did not panic")
		}
	}()
	m.Send(&Message{Src: 0, Dst: 9, Service: dist.NewDeterministic(1)})
}

func TestSetProgramAfterStartPanics(t *testing.T) {
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 3})
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("SetProgram after Start did not panic")
		}
	}()
	m.SetProgram(0, ProgramFunc(func(*Machine, int) Action { return Halt() }))
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
	m := New(Config{P: 1, NetLatency: dist.NewDeterministic(1), Seed: 1})
	m.SetProgram(0, ProgramFunc(func(*Machine, int) Action { return Compute(0) }))
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("infinite zero-cost program did not panic")
		}
	}()
	m.Run()
}

func BenchmarkAllToAllSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(Config{P: 32, NetLatency: dist.NewDeterministic(40), Seed: uint64(i)})
		for n := 0; n < 32; n++ {
			m.SetProgram(n, newPing(200, dist.NewDeterministic(200), 100, func(m *Machine, self int) int {
				d := m.Rand(self).Intn(31)
				if d >= self {
					d++
				}
				return d
			}))
		}
		m.Start()
		m.Run()
	}
}

func TestBlockAction(t *testing.T) {
	// A thread can block without sending; a handler unblocks it.
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 1})
	var resumedAt float64
	step := 0
	m.SetProgram(0, ProgramFunc(func(m *Machine, self int) Action {
		switch step {
		case 0:
			step++
			return Block()
		default:
			resumedAt = m.Now()
			return Halt()
		}
	}))
	sent := false
	m.SetProgram(1, ProgramFunc(func(m *Machine, self int) Action {
		if sent {
			return Halt()
		}
		sent = true
		return SendAsync(&Message{
			Src: 1, Dst: 0, Kind: KindRequest, Service: dist.NewDeterministic(10),
			OnComplete: func(m *Machine, msg *Message) { m.Unblock(0) },
		})
	}))
	m.Start()
	m.Run()
	if resumedAt != 15 { // 5 latency + 10 handler
		t.Fatalf("blocked thread resumed at %v, want 15", resumedAt)
	}
}

func TestMaxQueueDepth(t *testing.T) {
	// Three simultaneous arrivals at an idle node: depth peaks at 3.
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 1})
	sent := 0
	m.SetProgram(0, ProgramFunc(func(m *Machine, self int) Action {
		if sent == 3 {
			return Halt()
		}
		sent++
		return SendAsync(&Message{
			Src: 0, Dst: 1, Kind: KindRequest, Service: dist.NewDeterministic(100),
		})
	}))
	m.Start()
	m.Run()
	if got := m.NodeStats(1).MaxQueueDepth; got != 3 {
		t.Fatalf("max queue depth = %d, want 3", got)
	}
	if got := m.Stats().MaxQueueDepth; got != 3 {
		t.Fatalf("machine max queue depth = %d, want 3", got)
	}
}

func TestMaxQueueDepthSurvivesReset(t *testing.T) {
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 1})
	sent := 0
	m.SetProgram(0, ProgramFunc(func(m *Machine, self int) Action {
		if sent == 2 {
			return Halt()
		}
		sent++
		return SendAsync(&Message{
			Src: 0, Dst: 1, Kind: KindRequest, Service: dist.NewDeterministic(50),
		})
	}))
	m.Start()
	m.Run()
	m.ResetStats()
	if got := m.NodeStats(1).MaxQueueDepth; got != 2 {
		t.Fatalf("max queue depth after reset = %d, want 2 (not reset)", got)
	}
}

func TestMultipleThreadsRunUntilBlock(t *testing.T) {
	// Thread scheduling is switch-on-miss (Sparcle-style): a thread
	// keeps the CPU across consecutive Computes and yields only when it
	// blocks or halts. Thread a runs both its computes to completion
	// before b starts.
	m := New(Config{P: 1, NetLatency: dist.NewDeterministic(1), Seed: 1})
	var trace []string
	mk := func(name string, d float64, reps int) Program {
		n := 0
		return ProgramFunc(func(m *Machine, self int) Action {
			if n > 0 {
				trace = append(trace, fmt.Sprintf("%s@%v", name, m.Now()))
			}
			if n == reps {
				return Halt()
			}
			n++
			return Compute(d)
		})
	}
	m.AddThread(0, mk("a", 100, 2))
	m.AddThread(0, mk("b", 50, 2))
	m.Start()
	m.Run()
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

func TestMultithreadLatencyHiding(t *testing.T) {
	// Two threads pinging a remote server overlap their round trips:
	// the node completes cycles at nearly twice the single-thread rate
	// when the CPU is mostly idle waiting.
	run := func(threads int) (cycles int, elapsed float64) {
		m := New(Config{P: 2, NetLatency: dist.NewDeterministic(200), Seed: 1})
		for j := 0; j < threads; j++ {
			prog := &mtPing{w: 50, service: dist.NewDeterministic(30), cycles: 40}
			prog.tid = m.AddThread(0, prog)
		}
		m.Start()
		m.Run()
		if m.Halted() != threads {
			t.Fatalf("halted %d of %d threads", m.Halted(), threads)
		}
		return threads * 40, m.Now()
	}
	c1, e1 := run(1)
	c2, e2 := run(2)
	r1 := float64(c1) / e1
	r2 := float64(c2) / e2
	if r2 < 1.7*r1 {
		t.Fatalf("two threads rate %v not ~2x single rate %v", r2, r1)
	}
}

func TestUnblockAmbiguousPanics(t *testing.T) {
	// Two blocked threads: the single-thread Unblock API must refuse.
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(5), Seed: 1})
	for j := 0; j < 2; j++ {
		m.AddThread(0, ProgramFunc(func(m *Machine, self int) Action {
			return Block()
		}))
	}
	fired := false
	m.AddThread(1, ProgramFunc(func(m *Machine, self int) Action {
		if fired {
			return Halt()
		}
		fired = true
		return SendAsync(&Message{
			Src: 1, Dst: 0, Kind: KindRequest, Service: dist.NewDeterministic(10),
			OnComplete: func(m *Machine, msg *Message) {
				defer func() {
					if recover() == nil {
						t.Error("ambiguous Unblock did not panic")
					}
					m.UnblockThread(0, 0) // resolve properly
					m.UnblockThread(0, 1)
				}()
				m.Unblock(0)
			},
		})
	}))
	// The unblocked threads will Block again and the run ends with them
	// parked; that's fine for this test.
	m.Start()
	m.RunUntil(1000)
}

func TestPreemptedThreadResumesFirst(t *testing.T) {
	// A preempted thread must regain the CPU before other ready threads
	// (preempt-resume), even when a sibling was already queued.
	m := New(Config{P: 2, NetLatency: dist.NewDeterministic(10), Seed: 1})
	var order []string
	stepA, stepB := 0, 0
	m.AddThread(0, ProgramFunc(func(m *Machine, self int) Action { // thread a
		stepA++
		if stepA == 1 {
			return Compute(100) // will be preempted at t=60
		}
		order = append(order, fmt.Sprintf("a@%v", m.Now()))
		return Halt()
	}))
	m.AddThread(0, ProgramFunc(func(m *Machine, self int) Action { // thread b
		stepB++
		if stepB == 1 {
			return Compute(1) // runs [100?]... queued behind a
		}
		order = append(order, fmt.Sprintf("b@%v", m.Now()))
		return Halt()
	}))
	// Node 1 sends a message that lands at t=60, preempting thread a
	// (which has 40 cycles left). After the 30-cycle handler, a resumes
	// (finishing at 130), then b runs.
	sent := false
	m.AddThread(1, ProgramFunc(func(m *Machine, self int) Action {
		if sent {
			return Halt()
		}
		sent = true
		return SendAsync(&Message{
			Src: 1, Dst: 0, Kind: KindRequest, Service: dist.NewDeterministic(30),
		})
	}))
	// Wait: node 1's send leaves at t=0 sampling latency... latency 10;
	// to land at 60 we need compute first. Use Compute then send.
	m.Start()
	m.Run()
	// Arrival at t=10, handler [10,40]; a preempted with 90 left,
	// resumes [40,130]; then b [130,131].
	want := []string{"a@130", "b@131"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// mtPing is a thread-aware ping program: like pingProgram but it
// unblocks its own thread via UnblockThread, as multithreaded nodes
// require.
type mtPing struct {
	w       float64
	service dist.Distribution
	cycles  int
	tid     int
	done    int
	inCycle bool
}

func (p *mtPing) Next(m *Machine, self int) Action {
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
	p.inCycle = true
	tid := p.tid
	return SendAndBlock(&Message{
		Src: self, Dst: 1, Kind: KindRequest, Service: p.service,
		OnComplete: func(m *Machine, msg *Message) {
			m.Send(&Message{
				Src: msg.Dst, Dst: msg.Src, Kind: KindReply, Service: p.service,
				OnComplete: func(m *Machine, r *Message) { m.UnblockThread(r.Dst, tid) },
			})
		},
	})
}
