// Package machine simulates the class of parallel machines the LoPC
// paper models (Ch. 2): P processing nodes on a contention-free
// high-speed interconnect, communicating with Active Messages.
//
// Each node runs one computation thread (or several, via AddThread, for
// the latency-tolerance extension). An arriving message interrupts the
// running thread and runs its handler atomically to completion; messages
// that arrive while a handler is running wait in an unbounded hardware
// FIFO, and when a handler finishes the processor is interrupted again
// for each queued message before the thread resumes (preempt-resume
// priority). The machine can instead be configured with a protocol
// processor per node (the paper's shared-memory variant), in which case
// handlers run on the protocol processor and never interfere with the
// computation thread.
//
// The simulator is the stand-in for the paper's validation substrate:
// the authors report their event-driven simulator, built on exactly
// these assumptions, matches the MIT Alewife hardware within about 1%
// for every communication pattern studied.
package machine

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind distinguishes request handlers from reply handlers. The LoPC
// equations treat the two classes separately (queue lengths Qq and Qy,
// utilizations Uq and Uy), so the machine tracks them separately too.
type Kind int

const (
	// KindRequest marks messages that run request handlers (Hq).
	KindRequest Kind = iota
	// KindReply marks messages that run reply handlers (Hy).
	KindReply
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one active message. The Service distribution is sampled on
// the destination node when the handler begins service; OnComplete runs
// at the instant the handler finishes and performs the handler's
// effects (sending a reply, unblocking the local thread, forwarding a
// multi-hop request). The machine fills in the four timestamps, from
// which workloads compute the response-time components of the model
// (Rq = Done−Arrived for requests, Ry likewise for replies).
type Message struct {
	Src, Dst int
	Kind     Kind
	Service  dist.Distribution
	// OnComplete runs on handler completion. It may call Machine.Send
	// and Machine.Unblock. A nil OnComplete is allowed.
	OnComplete func(m *Machine, msg *Message)
	// UserData carries workload-specific context through the handler.
	UserData any

	// Timestamps, filled in by the machine (simulated cycles).
	Sent         sim.Time // injection into the network
	Arrived      sim.Time // arrival at the destination NI queue
	ServiceStart sim.Time // handler begins execution
	Done         sim.Time // handler completes
}

// Action is one step of a computation thread, returned by Program.Next.
// Construct actions with Compute, SendAndBlock, SendAsync, and Halt.
type Action struct {
	kind     actionKind
	duration float64
	msg      *Message
}

type actionKind int

const (
	actionCompute actionKind = iota
	actionSendBlock
	actionSendAsync
	actionBlock
	actionHalt
)

// Compute returns an action that occupies the thread's processor for d
// cycles of local work. The work is preemptible: message arrivals
// interrupt it and it resumes where it left off.
func Compute(d float64) Action {
	if d < 0 {
		panic(fmt.Sprintf("machine: negative compute duration %v", d))
	}
	return Action{kind: actionCompute, duration: d}
}

// SendAndBlock returns an action that injects msg and blocks the thread
// until some handler calls Machine.Unblock on this node — the blocking
// request of the LoPC model.
func SendAndBlock(msg *Message) Action { return Action{kind: actionSendBlock, msg: msg} }

// SendAsync returns an action that injects msg and immediately proceeds
// to the next action (a non-blocking send, used by the model's
// future-work extension for non-blocking requests).
func SendAsync(msg *Message) Action { return Action{kind: actionSendAsync, msg: msg} }

// Block returns an action that parks the thread until some handler
// calls Machine.Unblock on this node, without sending anything.
// Collective operations use it to wait for incoming messages.
func Block() Action { return Action{kind: actionBlock} }

// Halt returns an action that terminates the thread.
func Halt() Action { return Action{kind: actionHalt} }

// Program drives a node's computation thread. Next is called whenever
// the thread is ready to take its next step: at machine start, after a
// Compute finishes, after a SendAsync, and after the thread is
// unblocked following a SendAndBlock (and has regained the processor).
type Program interface {
	Next(m *Machine, node int) Action
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(m *Machine, node int) Action

// Next implements Program.
func (f ProgramFunc) Next(m *Machine, node int) Action { return f(m, node) }

// Config describes the simulated machine in the paper's architectural
// parameters.
type Config struct {
	// P is the number of processing nodes.
	P int
	// NetLatency is the per-trip wire time St. The interconnect is
	// contention-free: trips never interact. Typically deterministic.
	NetLatency dist.Distribution
	// ProtocolProcessor selects the shared-memory variant: handlers run
	// on a dedicated protocol processor and never preempt the thread.
	ProtocolProcessor bool
	// Seed roots all random streams (one per node plus one for the
	// network). The same seed reproduces the identical event trace.
	Seed uint64
}

type threadState int

const (
	threadIdle threadState = iota // no program assigned
	threadReady
	threadRunning
	threadBlocked
	threadHalted
)

// thread is one computation context on a node. The paper's machine has
// exactly one per node; AddThread relaxes that for the multithreading
// (latency-tolerance) extension.
type thread struct {
	id        int
	program   Program
	tstate    threadState
	remaining float64 // remaining cycles of the current Compute
	startedAt sim.Time
	event     *sim.Event
}

// node is the per-node simulator state.
type node struct {
	id   int
	rand *rng.Stream

	// Handler processor state. In interrupt mode this is the CPU in
	// handler context; in protocol-processor mode it is the separate
	// protocol processor. current is the in-service handler; handlerQ
	// holds waiting messages in FIFO order.
	handlerQ []*Message
	current  *Message

	// Computation threads. running is the tid of the thread holding
	// the CPU (-1 when none); ready is the FIFO of runnable tids, with
	// a preempted thread re-queued at the front (preempt-resume).
	threads []*thread
	running int
	ready   []int

	// Instrumentation. Present counts include the in-service handler.
	reqPresent, repPresent   int
	reqQ, repQ               stats.TimeWeighted
	busyReq, busyRep         stats.TimeWeighted
	threadBusy               stats.TimeWeighted
	reqArrivals, repArrivals int64
	reqResp, repResp         stats.Tally
	// maxDepth is the largest number of handlers ever present at once
	// (queued + in service), for checking the paper's unbounded-FIFO
	// assumption against real NI queue capacities.
	maxDepth int
}

// NodeStats is a snapshot of one node's steady-state measurements:
// the time-averaged queue lengths and utilizations the model's Little's
// law equations predict, plus per-class handler response-time tallies.
type NodeStats struct {
	// ReqQueue and RepQueue are time-averaged numbers of request/reply
	// handlers present (queued + in service) — the model's Qq and Qy.
	ReqQueue, RepQueue float64
	// UtilReq and UtilRep are the fractions of time a request/reply
	// handler was in service — the model's Uq and Uy.
	UtilReq, UtilRep float64
	// ThreadUtil is the fraction of time the computation thread was
	// executing.
	ThreadUtil float64
	// ReqArrivals and RepArrivals count handler arrivals since the last
	// stats reset.
	ReqArrivals, RepArrivals int64
	// ReqResponse and RepResponse tally handler response times
	// (arrival to completion) — the model's Rq and Ry.
	ReqResponse, RepResponse stats.Tally
	// MaxQueueDepth is the deepest the node's handler queue ever got
	// (including the handler in service), since machine start — it is
	// deliberately not reset with the other statistics, because it
	// checks the unbounded-FIFO assumption over the whole run.
	MaxQueueDepth int
	// Elapsed is the measurement window length.
	Elapsed float64
}

// Machine is the simulated multiprocessor.
type Machine struct {
	cfg       Config
	eng       *sim.Engine
	nodes     []*node
	netStream *rng.Stream
	started   bool
	halted    int
}

// New constructs a machine. It panics on an invalid configuration; a
// simulation with a malformed machine has no meaningful output.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic(fmt.Sprintf("machine: P = %d, need at least one node", cfg.P))
	}
	if cfg.NetLatency == nil {
		panic("machine: NetLatency distribution is required")
	}
	src := rng.NewSource(cfg.Seed)
	m := &Machine{
		cfg:       cfg,
		eng:       sim.NewEngine(),
		netStream: src.Stream(),
	}
	m.nodes = make([]*node, cfg.P)
	for i := range m.nodes {
		m.nodes[i] = &node{id: i, rand: src.Stream(), running: -1}
	}
	return m
}

// P returns the number of nodes.
func (m *Machine) P() int { return m.cfg.P }

// Now returns the current simulated time in cycles.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Engine exposes the event engine for workloads that need to schedule
// auxiliary events (e.g. measurement epochs).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Rand returns the random stream of the given node, for workload
// decisions (e.g. choosing a destination) that must be reproducible
// per-node.
func (m *Machine) Rand(nodeID int) *rng.Stream { return m.nodes[nodeID].rand }

// SetProgram installs the computation-thread program for a node — the
// paper's one-thread-per-node configuration. It must be called before
// Start, at most once per node (use AddThread for the multithreaded
// extension). Nodes without a program idle (the servers of the
// work-pile pattern have no program; they only run handlers).
func (m *Machine) SetProgram(nodeID int, p Program) {
	if len(m.nodes[nodeID].threads) > 0 {
		panic("machine: SetProgram on a node that already has a thread")
	}
	m.AddThread(nodeID, p)
}

// AddThread adds a computation thread running p to the node and returns
// its thread id — the multithreading (latency-tolerance) extension of
// the paper's machine. Scheduling is switch-on-miss, as on Alewife's
// Sparcle processor: a thread keeps the CPU across consecutive actions
// and yields only when it blocks or halts; handlers preempt whichever
// thread is running, and a preempted thread resumes before other ready
// threads. Blocking replies must wake the right context with
// UnblockThread. It must be called before Start.
func (m *Machine) AddThread(nodeID int, p Program) int {
	if m.started {
		panic("machine: AddThread after Start")
	}
	n := m.nodes[nodeID]
	t := &thread{id: len(n.threads), program: p, tstate: threadReady}
	n.threads = append(n.threads, t)
	return t.id
}

// Start begins execution: every node with a program has its thread
// dispatched at time zero.
func (m *Machine) Start() {
	if m.started {
		panic("machine: Start called twice")
	}
	m.started = true
	now := m.eng.Now()
	for _, n := range m.nodes {
		n.reqQ.Set(now, 0)
		n.repQ.Set(now, 0)
		n.busyReq.Set(now, 0)
		n.busyRep.Set(now, 0)
		n.threadBusy.Set(now, 0)
	}
	for _, n := range m.nodes {
		for _, t := range n.threads {
			n.ready = append(n.ready, t.id)
		}
		if len(n.threads) > 0 {
			n := n
			m.eng.Schedule(0, func() { m.dispatch(n) })
		}
	}
}

// Send injects a message into the interconnect. The caller must have
// set Src, Dst, Kind, and Service. Arrival is scheduled after one
// sampled network trip; the interconnect is contention-free so trips
// are independent.
func (m *Machine) Send(msg *Message) {
	if msg.Dst < 0 || msg.Dst >= m.cfg.P {
		panic(fmt.Sprintf("machine: send to invalid node %d", msg.Dst))
	}
	if msg.Service == nil {
		panic("machine: message without a service distribution")
	}
	msg.Sent = m.eng.Now()
	m.eng.Schedule(m.cfg.NetLatency.Sample(m.netStream), func() { m.arrive(msg) })
}

// Unblock marks the node's thread ready after a blocking request
// completes. It is called by reply-handler OnComplete functions. The
// thread regains the processor only once no handlers are queued or in
// service (interrupt mode), per the preempt-resume discipline.
func (m *Machine) Unblock(nodeID int) {
	n := m.nodes[nodeID]
	blocked := -1
	for _, t := range n.threads {
		if t.tstate == threadBlocked {
			if blocked >= 0 {
				panic(fmt.Sprintf("machine: Unblock(%d) is ambiguous with several blocked threads; use UnblockThread", nodeID))
			}
			blocked = t.id
		}
	}
	if blocked < 0 {
		panic(fmt.Sprintf("machine: Unblock(%d) but no thread is blocked", nodeID))
	}
	m.UnblockThread(nodeID, blocked)
}

// UnblockThread marks a specific thread of a node ready after a
// blocking request completes — the multithreaded counterpart of
// Unblock. The thread regains the processor once no handlers are
// queued or in service (interrupt mode) and the threads ahead of it in
// the ready queue have run or blocked.
func (m *Machine) UnblockThread(nodeID, tid int) {
	n := m.nodes[nodeID]
	t := n.threads[tid]
	if t.tstate != threadBlocked {
		panic(fmt.Sprintf("machine: UnblockThread(%d, %d) but thread is %v", nodeID, tid, t.tstate))
	}
	t.tstate = threadReady
	n.ready = append(n.ready, tid)
	m.dispatch(n)
}

// Halted returns the number of threads that have executed Halt.
func (m *Machine) Halted() int { return m.halted }

// RunUntil advances the simulation to time t.
func (m *Machine) RunUntil(t sim.Time) { m.eng.RunUntil(t) }

// RunWhile advances the simulation while cond holds and events remain.
func (m *Machine) RunWhile(cond func() bool) { m.eng.RunWhile(cond) }

// Run advances the simulation until no events remain (all threads
// halted and all handlers drained).
func (m *Machine) Run() { m.eng.Run() }

// arrive delivers a message to its destination's NI queue.
func (m *Machine) arrive(msg *Message) {
	n := m.nodes[msg.Dst]
	now := m.eng.Now()
	msg.Arrived = now
	switch msg.Kind {
	case KindRequest:
		n.reqArrivals++
		n.reqPresent++
		n.reqQ.Set(now, float64(n.reqPresent))
	case KindReply:
		n.repArrivals++
		n.repPresent++
		n.repQ.Set(now, float64(n.repPresent))
	}
	n.handlerQ = append(n.handlerQ, msg)
	if depth := n.reqPresent + n.repPresent; depth > n.maxDepth {
		n.maxDepth = depth
	}
	m.dispatch(n)
}

// dispatch gives the node's processor(s) to whatever should run next.
// It is idempotent: callers invoke it after any state change.
func (m *Machine) dispatch(n *node) {
	if m.cfg.ProtocolProcessor {
		// Shared-memory variant: handlers on the protocol processor,
		// threads on the CPU, independently.
		if n.current == nil && len(n.handlerQ) > 0 {
			m.startHandler(n)
		}
		if n.running < 0 && len(n.ready) > 0 {
			m.giveThreadCPU(n)
		}
		return
	}
	// Interrupt model: handlers have priority and share the CPU with
	// the threads.
	if n.current != nil {
		return // a handler is in service and is atomic
	}
	if len(n.handlerQ) > 0 {
		if n.running >= 0 {
			m.preempt(n)
		}
		m.startHandler(n)
		return
	}
	if n.running < 0 && len(n.ready) > 0 {
		m.giveThreadCPU(n)
	}
}

// startHandler begins service of the next queued message.
func (m *Machine) startHandler(n *node) {
	msg := n.handlerQ[0]
	// Shift rather than re-slice forever; the queue is typically short
	// and this keeps the backing array from growing without bound.
	copy(n.handlerQ, n.handlerQ[1:])
	n.handlerQ = n.handlerQ[:len(n.handlerQ)-1]

	now := m.eng.Now()
	n.current = msg
	msg.ServiceStart = now
	switch msg.Kind {
	case KindRequest:
		n.busyReq.Set(now, 1)
	case KindReply:
		n.busyRep.Set(now, 1)
	}
	service := msg.Service.Sample(n.rand)
	m.eng.Schedule(service, func() { m.handlerDone(n, msg) })
}

// handlerDone completes the in-service handler: records measurements,
// runs the handler's effects, and re-dispatches the processor.
func (m *Machine) handlerDone(n *node, msg *Message) {
	now := m.eng.Now()
	msg.Done = now
	n.current = nil
	switch msg.Kind {
	case KindRequest:
		n.reqPresent--
		n.reqQ.Set(now, float64(n.reqPresent))
		n.busyReq.Set(now, 0)
		n.reqResp.Add(msg.Done - msg.Arrived)
	case KindReply:
		n.repPresent--
		n.repQ.Set(now, float64(n.repPresent))
		n.busyRep.Set(now, 0)
		n.repResp.Add(msg.Done - msg.Arrived)
	}
	if msg.OnComplete != nil {
		msg.OnComplete(m, msg)
	}
	m.dispatch(n)
}

// preempt interrupts the running thread, banking its remaining work
// and re-queuing it at the head of the ready queue (preempt-resume: it
// regains the CPU before other ready threads once the handlers drain).
func (m *Machine) preempt(n *node) {
	now := m.eng.Now()
	t := n.threads[n.running]
	m.eng.Cancel(t.event)
	t.event = nil
	elapsed := now - t.startedAt
	t.remaining -= elapsed
	if t.remaining < 0 {
		t.remaining = 0 // floating-point fuzz only
	}
	t.tstate = threadReady
	n.ready = append([]int{t.id}, n.ready...)
	n.running = -1
	n.threadBusy.Set(now, 0)
}

// giveThreadCPU pops the head of the ready queue and resumes or
// advances it.
func (m *Machine) giveThreadCPU(n *node) {
	tid := n.ready[0]
	n.ready = n.ready[1:]
	t := n.threads[tid]
	n.running = tid
	if t.remaining > 0 {
		m.startThreadRun(n, t)
		return
	}
	m.advanceThread(n, t)
}

// startThreadRun runs the thread for its remaining banked work.
func (m *Machine) startThreadRun(n *node, t *thread) {
	now := m.eng.Now()
	t.tstate = threadRunning
	t.startedAt = now
	n.threadBusy.Set(now, 1)
	t.event = m.eng.Schedule(t.remaining, func() { m.threadDone(n, t) })
}

// threadDone fires when a Compute finishes uninterrupted.
func (m *Machine) threadDone(n *node, t *thread) {
	t.remaining = 0
	t.event = nil
	t.tstate = threadReady
	n.threadBusy.Set(m.eng.Now(), 0)
	// In interrupt mode the CPU is necessarily free of handlers here
	// (an arrival would have preempted the run); in PP mode threads
	// never wait for handlers. Either way this thread keeps the CPU
	// for its next zero-cost actions.
	m.advanceThread(n, t)
}

// advanceThread executes the thread's zero-duration actions until it
// either starts a Compute, blocks, or halts. The thread must hold the
// CPU (n.running == t.id).
func (m *Machine) advanceThread(n *node, t *thread) {
	const maxZeroCostActions = 1 << 20
	for i := 0; ; i++ {
		if i == maxZeroCostActions {
			panic(fmt.Sprintf("machine: node %d program issued %d actions without consuming time", n.id, i))
		}
		action := t.program.Next(m, n.id)
		switch action.kind {
		case actionCompute:
			//lopc:allow floateq exactly-zero compute is a no-op action; any positive duration schedules an event
			if action.duration == 0 {
				continue
			}
			t.remaining = action.duration
			m.startThreadRun(n, t)
			return
		case actionSendBlock:
			m.Send(action.msg)
			t.tstate = threadBlocked
			n.running = -1
			m.dispatch(n)
			return
		case actionBlock:
			t.tstate = threadBlocked
			n.running = -1
			m.dispatch(n)
			return
		case actionSendAsync:
			m.Send(action.msg)
			continue
		case actionHalt:
			t.tstate = threadHalted
			n.running = -1
			m.halted++
			m.dispatch(n)
			return
		default:
			panic(fmt.Sprintf("machine: unknown action kind %d", action.kind))
		}
	}
}

// ResetStats restarts all steady-state measurements at the current
// simulated time. Experiments call it at the end of warmup.
func (m *Machine) ResetStats() {
	now := m.eng.Now()
	for _, n := range m.nodes {
		n.reqQ.Reset(now, float64(n.reqPresent))
		n.repQ.Reset(now, float64(n.repPresent))
		n.busyReq.Reset(now, boolTo01(n.current != nil && n.current.Kind == KindRequest))
		n.busyRep.Reset(now, boolTo01(n.current != nil && n.current.Kind == KindReply))
		n.threadBusy.Reset(now, boolTo01(n.running >= 0))
		n.reqArrivals, n.repArrivals = 0, 0
		n.reqResp, n.repResp = stats.Tally{}, stats.Tally{}
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// NodeStats returns a measurement snapshot for one node, integrated up
// to the current simulated time.
func (m *Machine) NodeStats(nodeID int) NodeStats {
	n := m.nodes[nodeID]
	now := m.eng.Now()
	n.reqQ.Advance(now)
	n.repQ.Advance(now)
	n.busyReq.Advance(now)
	n.busyRep.Advance(now)
	n.threadBusy.Advance(now)
	return NodeStats{
		ReqQueue:      n.reqQ.Mean(),
		RepQueue:      n.repQ.Mean(),
		UtilReq:       n.busyReq.Mean(),
		UtilRep:       n.busyRep.Mean(),
		ThreadUtil:    n.threadBusy.Mean(),
		ReqArrivals:   n.reqArrivals,
		RepArrivals:   n.repArrivals,
		ReqResponse:   n.reqResp,
		RepResponse:   n.repResp,
		MaxQueueDepth: n.maxDepth,
		Elapsed:       n.reqQ.Elapsed(),
	}
}

// MachineStats aggregates NodeStats across all nodes (arithmetic means
// of the per-node time averages; merged response tallies; summed
// arrival counts).
type MachineStats struct {
	ReqQueue, RepQueue       float64
	UtilReq, UtilRep         float64
	ThreadUtil               float64
	ReqArrivals, RepArrivals int64
	ReqResponse, RepResponse stats.Tally
	// MaxQueueDepth is the deepest handler queue seen on any node.
	MaxQueueDepth int
	Elapsed       float64
}

// Stats returns machine-wide aggregated measurements.
func (m *Machine) Stats() MachineStats {
	var agg MachineStats
	for i := range m.nodes {
		ns := m.NodeStats(i)
		agg.ReqQueue += ns.ReqQueue
		agg.RepQueue += ns.RepQueue
		agg.UtilReq += ns.UtilReq
		agg.UtilRep += ns.UtilRep
		agg.ThreadUtil += ns.ThreadUtil
		agg.ReqArrivals += ns.ReqArrivals
		agg.RepArrivals += ns.RepArrivals
		agg.ReqResponse.Merge(&ns.ReqResponse)
		agg.RepResponse.Merge(&ns.RepResponse)
		if ns.MaxQueueDepth > agg.MaxQueueDepth {
			agg.MaxQueueDepth = ns.MaxQueueDepth
		}
		agg.Elapsed = ns.Elapsed
	}
	p := float64(m.cfg.P)
	agg.ReqQueue /= p
	agg.RepQueue /= p
	agg.UtilReq /= p
	agg.UtilRep /= p
	agg.ThreadUtil /= p
	return agg
}

func (s threadState) String() string {
	switch s {
	case threadIdle:
		return "idle"
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadBlocked:
		return "blocked"
	case threadHalted:
		return "halted"
	default:
		return fmt.Sprintf("threadState(%d)", int(s))
	}
}
