// Package machine simulates the class of parallel machines the LoPC
// paper models (Ch. 2): P processing nodes on a contention-free
// high-speed interconnect, communicating with Active Messages.
//
// An arriving message interrupts the running thread and runs its
// handler atomically to completion; messages that arrive while a
// handler is running wait in an unbounded hardware FIFO, and the thread
// resumes only once the queue drains (preempt-resume priority). With a
// protocol processor per node (the paper's shared-memory variant),
// handlers run beside the thread and never interfere with it. The
// paper's authors validated their event-driven simulator, built on
// these assumptions, against the MIT Alewife hardware within about 1%.
//
// The machine runs on the parallel simulation core: one psim logical
// process per node, carrying the node's handler processor, its
// computation threads and its steady-state measurements. The
// interconnect's guaranteed minimum latency (the paper's wire time St,
// dist.LowerBound of the latency distribution) becomes the psim
// lookahead, which is what lets the conservative and optimistic cores
// overlap nodes without breaking the event order. Service times are
// referenced by index into a shared table so events stay flat values.
//
// A node runs one thread with the blocking request/reply protocol built
// in (Request), or, for the extensions, several threads (Threads) that
// send one-way messages (Send), park (Block), and are woken by the
// node's handler-completion Hook. A Send message carries its workload
// data in the event payload, so no effect crosses nodes outside a
// message.
//
// Four extras relax the paper's Ch. 2 machine for ablation and
// inspection: LinkOccupancy serializes each ordered link, NIQueueCap
// bounds the handler FIFO with NACK and retry, PairLatency gives every
// ordered pair its own wire time, and an Observer sees the run's
// structural events. The sequential and conservative cores run every
// feature. The optimistic core refuses the two stateful extras, the
// Observer, Threads and Hooks: their state lives outside the
// checkpointed node state.
package machine

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Kind distinguishes request handlers from reply handlers. The LoPC
// equations treat the two classes separately (queue lengths Qq and Qy,
// utilizations Uq and Uy), so the machine tracks them separately too.
type Kind uint8

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
	// ThreadUtil is the fraction of time a computation thread was
	// executing.
	ThreadUtil float64
	// ReqArrivals and RepArrivals count handler arrivals since the last
	// stats reset.
	ReqArrivals, RepArrivals int64
	// ReqResponse and RepResponse tally handler response times
	// (arrival to completion) — the model's Rq and Ry.
	ReqResponse, RepResponse stats.Tally
	// MaxQueueDepth is the deepest the node's handler queue ever got
	// (including the handler in service), since the start of the run —
	// it is deliberately not reset with the other statistics, because
	// it checks the unbounded-FIFO assumption over the whole run.
	MaxQueueDepth int
	// Elapsed is the measurement window length.
	Elapsed float64
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

// Event kinds of the machine's psim traffic.
const (
	kReq         int32 = iota + 1 // cross-node request (I0 service, I1 reply service, F0 sent)
	kRep                          // cross-node reply (I0 service, F0 sent, F1-F3 request timestamps)
	kHandlerDone                  // self: the in-service handler completes
	kThreadDone                   // self: the current Compute finishes (U0 run token)
	kReset                        // self: restart steady-state measurements
	kNackReq                      // a full NI queue bounced a request back to its sender (kReq payload)
	kNackRep                      // a full NI queue bounced a reply back to its sender (kRep payload)
	kSendReq                      // one-way Send message, request class (I0 service, I1 thread, U0 tag, F0 sent, F1 value)
	kSendRep                      // one-way Send message, reply class (kSendReq payload)
)

type actionKind uint8

const (
	actionCompute actionKind = iota
	actionRequest
	actionHalt
	actionSendReq // Send of a request-class message
	actionSendRep // Send of a reply-class message
	actionBlock
)

type threadState int

const (
	threadIdle threadState = iota // no program assigned
	threadReady
	threadRunning
	threadBlocked
	threadHalted
)

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

// Action is one step of a node's computation thread. Construct
// with Compute, Request, Send, Block, and Halt.
type Action struct {
	kind     actionKind
	dst      int32
	duration float64 // Compute: cycles; Send: Message.Val
	svc      int32
	reply    int32  // Request: reply service; Send: Message.Thread
	tag      uint64 // Send: Message.Tag
}

// Compute occupies the thread for d cycles of preemptible work.
func Compute(d float64) Action {
	if d < 0 {
		panic(fmt.Sprintf("machine: negative compute duration %v", d))
	}
	return Action{kind: actionCompute, duration: d}
}

// Request sends a blocking request to node dst: the request handler
// runs service svc there, its reply runs service reply back here, and
// the reply's completion unblocks the thread (the LoPC request/reply
// round trip). svc and reply index Config.Services.
func Request(dst int, svc, reply int) Action {
	return Action{kind: actionRequest, dst: int32(dst), svc: int32(svc), reply: int32(reply)}
}

// Halt terminates the thread.
func Halt() Action { return Action{kind: actionHalt} }

// Send injects the one-way message m to node dst and lets the thread
// go on at once (a non-blocking send). When m's handler completes on
// dst, dst's Hook sees it.
func Send(dst int, m Message) Action {
	kind := actionSendReq
	if m.Kind == KindReply {
		kind = actionSendRep
	}
	return Action{kind: kind, dst: int32(dst), svc: int32(m.Svc), reply: int32(m.Thread), tag: m.Tag, duration: m.Val}
}

// Block parks the thread until a hook on its node wakes it with
// NodeView.Wake.
func Block() Action { return Action{kind: actionBlock} }

// Message is a one-way active message, sent with the Send action or
// NodeView.Send. Svc indexes Config.Services. Thread, Tag and Val are
// the workload's own data (a thread for a reply to wake, a hop count,
// a round, a value): they travel in the event payload, so a workload's
// cross-node effects need no state shared between nodes. The machine
// fills in Src, Dst and the timestamps before the hook sees a message.
type Message struct {
	Kind   Kind
	Svc    int
	Thread int
	Tag    uint64
	Val    float64

	Src, Dst            int
	Sent, Arrived, Done float64
}

// Hook runs on a node each time the handler of a Send message
// completes there, at the completion time. It may send messages and
// wake the node's blocked threads through v; the node re-dispatches
// its processor after the hook returns.
type Hook interface {
	Done(v *NodeView, m Message)
}

// CycleInfo reports the timestamps of the thread's most recent
// completed request/reply round trip, for workload measurements.
type CycleInfo struct {
	ReqSent, ReqArrived, ReqDone float64
	RepSent, RepArrived, RepDone float64
}

// Program drives one node's computation thread. Next is called
// whenever the thread is ready for its next step: at start, after a
// Compute finishes, and after a request's reply unblocks it. Save and
// Restore snapshot the program's mutable state for the optimistic core
// (programs that never run optimistically may return nil and ignore),
// under psim.LP's contract: reuse is nil or a snapshot this program's
// Save returned earlier that the kernel has discarded, which Save may
// overwrite and return, and Restore must not retain its argument.
type Program interface {
	Next(v *NodeView) Action
	Save(reuse any) any
	Restore(snapshot any)
}

// NoSnapshot gives a program that never runs on the optimistic core
// (one on a node with a Hook or several threads, which that core
// refuses) the Save and Restore of Program: they do nothing.
type NoSnapshot struct{}

// Save implements Program.
func (NoSnapshot) Save(any) any { return nil }

// Restore implements Program.
func (NoSnapshot) Restore(any) {}

// NodeView is a program's window onto its node during Next, and a
// hook's during Done.
type NodeView struct {
	n   *node
	ctx *psim.Ctx
}

// Now returns the node's current simulated time.
func (v *NodeView) Now() float64 { return v.ctx.Now() }

// Self returns the node index.
func (v *NodeView) Self() int { return v.ctx.Self() }

// N returns the number of nodes.
func (v *NodeView) N() int { return v.ctx.N() }

// Rand returns the node's private random stream.
func (v *NodeView) Rand() *rng.Stream { return v.ctx.Rand() }

// Cycle returns the timestamps of the most recent completed round trip.
func (v *NodeView) Cycle() CycleInfo { return v.n.st.cycle }

// ResetStats restarts this node's steady-state measurements at the
// current time, which a program calls at its own warmup boundary.
func (v *NodeView) ResetStats() { v.n.resetStats(v.ctx.Now()) }

// Stats returns this node's measurements integrated to the current
// time, for a program that closes its own measurement window.
func (v *NodeView) Stats() NodeStats { return v.n.snapshot(v.ctx.Now()) }

// Thread returns the index of the thread whose Next is running (0 on a
// single-thread node).
func (v *NodeView) Thread() int {
	if v.n.mt == nil {
		return 0
	}
	return v.n.mt.cur
}

// Send injects the one-way message m to node dst now; hooks use it to
// forward a request or answer one.
func (v *NodeView) Send(dst int, m Message) {
	kind := kSendReq
	if m.Kind == KindReply {
		kind = kSendRep
	}
	v.n.sendMsg(v.ctx, dst, kind, int32(m.Svc), int32(m.Thread), m.Tag, m.Val)
}

// Wake makes the node's blocked thread tid ready. It joins the back of
// the ready queue and runs once no handler holds the processor and the
// threads ahead of it have blocked or halted. Waking a thread that is
// not blocked panics.
func (v *NodeView) Wake(tid int) {
	n := v.n
	st := &n.st
	if n.mt == nil {
		if tid != 0 || st.tstate != threadBlocked {
			panic(fmt.Sprintf("machine: node %d wakes thread %d, which is not blocked (thread 0 is %v)", v.Self(), tid, st.tstate))
		}
		st.tstate = threadReady
		return
	}
	if tid < 0 || tid >= len(n.mt.state) || n.mt.state[tid] != threadBlocked {
		panic(fmt.Sprintf("machine: node %d wakes thread %d, which is not blocked", v.Self(), tid))
	}
	n.mt.state[tid] = threadReady
	n.mt.ready = append(n.mt.ready, tid)
	if st.tstate == threadBlocked {
		st.tstate = threadReady
	}
}

// hmsg is one handler-processor message in a node's NI queue.
type hmsg struct {
	kind    Kind
	oneway  bool // a Send message: its completion runs the node's hook
	src     int32
	svc     int32 // service selector for this handler
	reply   int32 // requests: reply service selector (< 0: no reply); Send: Message.Thread
	sent    float64
	arrived float64
	reqSent float64 // replies: the originating request's timestamps; Send: Message.Val
	reqArr  float64
	reqDone float64
	tag     uint64 // Send: Message.Tag
}

// nodeState is the mutable per-node simulator state. Everything is a
// value except the handler queue, which Save and Restore copy element
// by element, so an optimistic snapshot is a struct copy plus one
// slice copy.
type nodeState struct {
	handlerQ  []hmsg
	current   hmsg
	inService bool

	tstate    threadState
	remaining float64
	startedAt float64
	runSeq    uint64
	cycle     CycleInfo

	reqPresent, repPresent   int
	reqQ, repQ               stats.TimeWeighted
	busyReq, busyRep         stats.TimeWeighted
	threadBusy               stats.TimeWeighted
	reqArrivals, repArrivals int64
	reqResp, repResp         stats.Tally
	maxDepth                 int
}

// snap is one optimistic checkpoint of a node.
type snap struct {
	st   nodeState
	prog any
}

// node is the psim.LP for one machine node.
type node struct {
	cfg  *Config
	prog Program // the thread program holding the CPU; nil: the node only runs handlers
	hook Hook
	st   nodeState
	view NodeView

	// mt schedules a node with several threads, nil otherwise. Run
	// refuses it under the optimistic core, so it is not checkpointed.
	mt *threads

	// x is the state of the extras, nil on the paper's machine: its
	// sends and arrivals pay one nil check for them.
	x *extras
}

// extras is a node's state for the Config extras. Run refuses the
// stateful ones under the optimistic core, so none of it is
// checkpointed.
type extras struct {
	linkFree []float64 // LinkOccupancy: when this node's link to each destination is next free
	nacks    int64     // NIQueueCap: messages this node bounced
	sentSeq  uint64    // Observer: messages this node injected
	svcStart float64   // Observer: when the in-service handler started
}

// threads is the scheduler of a node with several thread programs:
// a FIFO ready queue in which a preempted thread goes back to the
// front, so it resumes before the others once the handlers drain.
// Only that thread can have banked work, so the node-level remaining,
// startedAt and runSeq serve every thread; st.tstate summarizes the
// threads for dispatch (running while one computes, ready while the
// queue is non-empty and none holds the CPU, blocked otherwise).
type threads struct {
	progs []Program
	state []threadState
	ready []int
	cur   int // the thread holding the CPU
}

// pop gives the CPU to the head of the ready queue.
func (t *threads) pop() Program {
	t.cur = t.ready[0]
	copy(t.ready, t.ready[1:])
	t.ready = t.ready[:len(t.ready)-1]
	t.state[t.cur] = threadRunning
	return t.progs[t.cur]
}

// ObsKind names what an Observation reports.
type ObsKind uint8

const (
	// ObsSent: a message entered the network at At. A NACKed
	// retransmission is not reported again.
	ObsSent ObsKind = iota
	// ObsArrived: a message reached its destination's NI queue at At.
	ObsArrived
	// ObsHandler: Node ran a handler for the message over [Start, At];
	// the message had arrived at Arrived.
	ObsHandler
	// ObsThread: Node's computation thread ran uninterrupted over
	// [Start, At], ended by completion or preemption.
	ObsThread
)

// Observation is one structural event of a run. Times are
// simulated cycles.
type Observation struct {
	Kind ObsKind
	Node int
	// Msg, Src and Dst describe the message of a message observation.
	// Seq numbers the messages of each source, so (Src, Seq) identifies
	// a message across its send and its arrival.
	Msg      Kind
	Src, Dst int
	Seq      uint64
	Arrived  float64
	Start    float64
	At       float64
}

// Observer receives a run's structural events in commit order. It
// fires on the sequential core only and must not mutate the run.
type Observer interface {
	Observe(o Observation)
}

// Config describes a machine run.
type Config struct {
	// P is the number of nodes (one LP each).
	P int
	// Latency is the cross-node network latency; its guaranteed lower
	// bound (dist.LowerBound) is the parallel lookahead. The paper's
	// deterministic wire time St gives lookahead St.
	Latency dist.Distribution
	// Services is the table of handler service-time distributions that
	// Request actions reference by index.
	Services []dist.Distribution
	// Programs holds one thread program per node; nil entries are
	// handler-only nodes (the servers of the work-pile pattern).
	Programs []Program
	// Threads, in place of Programs, gives node i the len(Threads[i])
	// thread programs of the multithreading extension, scheduled
	// switch-on-block: a thread keeps the CPU until it blocks or halts,
	// handlers preempt it, and it then resumes before other ready
	// threads. A node with several threads cannot use Request; its
	// threads Send and Block, and the hook wakes them.
	Threads [][]Program
	// Hooks holds one handler-completion hook per node (nil entries:
	// none), run when a Send message's handler completes.
	Hooks []Hook
	// ProtocolProcessor selects the shared-memory variant: handlers run
	// beside the thread instead of preempting it.
	ProtocolProcessor bool
	// Seed roots the per-node random substreams.
	Seed uint64
	// ResetStatsAt, when positive, restarts every node's steady-state
	// measurements at that time (the warmup boundary).
	ResetStatsAt float64
	// Until bounds the run; 0 means run to quiescence.
	Until float64

	// LinkOccupancy serializes the interconnect: each message occupies
	// its ordered (src, dst) link for this many cycles before its
	// propagation latency. 0 is the paper's contention-free network.
	LinkOccupancy float64
	// NIQueueCap bounds each node's handler FIFO (queued plus in
	// service); 0 is the paper's unbounded queue. A message arriving at
	// a full queue is NACKed back to its sender, which re-injects it
	// RetryDelay cycles after the NACK's own Latency trip.
	NIQueueCap int
	RetryDelay float64
	// PairLatency, when non-nil, gives each ordered pair of distinct
	// nodes its own wire time in place of a Latency sample (NACK trips
	// still sample Latency). Every pair latency must be positive; the
	// lookahead is the smallest of them and Latency's lower bound.
	PairLatency func(src, dst int) float64
	// Observer, when non-nil, receives the run's structural events. It
	// requires the sequential core.
	Observer Observer

	// Sync, Jobs, and Window select and tune the synchronization core;
	// Trace and Metrics are passed through to psim.
	Sync    psim.Sync
	Jobs    int
	Window  float64
	Trace   *psim.Trace
	Metrics *psim.Metrics
}

// Result is the outcome of a run.
type Result struct {
	// Nodes holds per-node measurements, integrated to the common end
	// time (Until, or the last committed event under quiescence).
	Nodes []NodeStats
	// Run reports the synchronization core's statistics.
	Run psim.RunStats
	// Nacks counts messages bounced off full NI queues over the whole
	// run (NIQueueCap only).
	Nacks int64
}

// Aggregate folds the per-node measurements machine-wide: arithmetic
// means of per-node time averages, merged response tallies, summed
// arrival counts.
func (r *Result) Aggregate() MachineStats {
	var agg MachineStats
	for i := range r.Nodes {
		ns := &r.Nodes[i]
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
	p := float64(len(r.Nodes))
	agg.ReqQueue /= p
	agg.RepQueue /= p
	agg.UtilReq /= p
	agg.UtilRep /= p
	agg.ThreadUtil /= p
	return agg
}

// Run executes the machine under the configured psim core and
// returns per-node measurements plus core statistics. For a fixed seed
// the committed event sequence — and therefore every measurement — is
// identical across cores and job counts.
func Run(cfg Config) (Result, error) {
	if cfg.P < 1 {
		return Result{}, fmt.Errorf("machine: P = %d, need at least one node", cfg.P)
	}
	if cfg.Latency == nil {
		return Result{}, fmt.Errorf("machine: Latency distribution is required")
	}
	if len(cfg.Programs) != 0 && len(cfg.Programs) != cfg.P {
		return Result{}, fmt.Errorf("machine: %d programs for %d nodes", len(cfg.Programs), cfg.P)
	}
	switch {
	case cfg.Threads != nil && len(cfg.Programs) != 0:
		return Result{}, fmt.Errorf("machine: set Programs or Threads, not both")
	case cfg.Threads != nil && len(cfg.Threads) != cfg.P:
		return Result{}, fmt.Errorf("machine: thread programs for %d nodes, want %d", len(cfg.Threads), cfg.P)
	case len(cfg.Hooks) != 0 && len(cfg.Hooks) != cfg.P:
		return Result{}, fmt.Errorf("machine: %d hooks for %d nodes", len(cfg.Hooks), cfg.P)
	case cfg.Sync == psim.SyncOpt && (cfg.Threads != nil || len(cfg.Hooks) != 0):
		return Result{}, fmt.Errorf("machine: the opt core cannot roll back Threads or Hooks state; use seq or cons")
	}
	for i, s := range cfg.Services {
		if s == nil {
			return Result{}, fmt.Errorf("machine: service %d is nil", i)
		}
	}
	lookahead, err := cfg.extras()
	if err != nil {
		return Result{}, err
	}
	nodes := make([]*node, cfg.P)
	lps := make([]psim.LP, cfg.P)
	for i := range nodes {
		n := &node{cfg: &cfg}
		if len(cfg.Programs) != 0 {
			n.prog = cfg.Programs[i]
		}
		if cfg.Threads != nil {
			switch ts := cfg.Threads[i]; len(ts) {
			case 0:
			case 1:
				n.prog = ts[0]
			default:
				n.mt = &threads{progs: ts, state: make([]threadState, len(ts))}
			}
		}
		if len(cfg.Hooks) != 0 {
			n.hook = cfg.Hooks[i]
		}
		n.view.n = n
		if cfg.LinkOccupancy > 0 || cfg.NIQueueCap > 0 || cfg.PairLatency != nil || cfg.Observer != nil {
			n.x = &extras{}
			if cfg.LinkOccupancy > 0 {
				n.x.linkFree = make([]float64, cfg.P)
			}
		}
		nodes[i] = n
		lps[i] = n
	}
	rs, err := psim.Run(psim.Config{
		LPs:       lps,
		Lookahead: lookahead,
		Sync:      cfg.Sync,
		Jobs:      cfg.Jobs,
		Seed:      cfg.Seed,
		Until:     cfg.Until,
		Window:    cfg.Window,
		Trace:     cfg.Trace,
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		return Result{}, err
	}
	end := cfg.Until
	//lopc:allow floateq the exact zero value is the "run to completion" sentinel; any positive until passes through
	if end == 0 || math.IsInf(end, 1) {
		end = rs.MaxTime
	}
	res := Result{Nodes: make([]NodeStats, cfg.P), Run: rs}
	for i, n := range nodes {
		res.Nodes[i] = n.snapshot(end)
		if n.x != nil {
			res.Nacks += n.x.nacks
		}
	}
	return res, nil
}

// extras validates the extras against the chosen core and returns the
// run's lookahead: Latency's lower bound, lowered to the smallest pair
// latency when PairLatency is set.
func (cfg *Config) extras() (float64, error) {
	switch {
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(cfg.LinkOccupancy >= 0) || math.IsInf(cfg.LinkOccupancy, 0):
		return 0, fmt.Errorf("machine: invalid LinkOccupancy %v", cfg.LinkOccupancy)
	case cfg.NIQueueCap < 0:
		return 0, fmt.Errorf("machine: invalid NIQueueCap %d", cfg.NIQueueCap)
	case !(cfg.RetryDelay >= 0) || math.IsInf(cfg.RetryDelay, 0):
		return 0, fmt.Errorf("machine: invalid RetryDelay %v", cfg.RetryDelay)
	case cfg.Sync == psim.SyncOpt && (cfg.LinkOccupancy > 0 || cfg.NIQueueCap > 0):
		return 0, fmt.Errorf("machine: the opt core cannot roll back LinkOccupancy or NIQueueCap state; use seq or cons")
	case cfg.Observer != nil && cfg.Sync != psim.SyncSeq:
		return 0, fmt.Errorf("machine: an Observer needs the seq core, not %v", cfg.Sync)
	}
	lookahead := dist.LowerBound(cfg.Latency)
	if cfg.PairLatency == nil {
		return lookahead, nil
	}
	for src := 0; src < cfg.P; src++ {
		for dst := 0; dst < cfg.P; dst++ {
			if src == dst {
				continue
			}
			d := cfg.PairLatency(src, dst)
			if !(d > 0) || math.IsInf(d, 0) {
				return 0, fmt.Errorf("machine: pair latency %v for %d->%d, need a positive finite time", d, src, dst)
			}
			lookahead = min(lookahead, d)
		}
	}
	return lookahead, nil
}

// Start implements psim.LP: initialize measurements, arm the stats
// reset, and launch the thread.
func (n *node) Start(ctx *psim.Ctx) {
	n.view.ctx = ctx
	st := &n.st
	st.reqQ.Set(0, 0)
	st.repQ.Set(0, 0)
	st.busyReq.Set(0, 0)
	st.busyRep.Set(0, 0)
	st.threadBusy.Set(0, 0)
	if at := n.cfg.ResetStatsAt; at > 0 {
		ctx.Send(ctx.Self(), at, kReset, psim.Msg{})
	}
	if n.mt != nil {
		for i := range n.mt.progs {
			n.mt.state[i] = threadReady
			n.mt.ready = append(n.mt.ready, i)
		}
		st.tstate = threadReady
		n.dispatch(ctx)
		return
	}
	if n.prog == nil {
		st.tstate = threadIdle
		return
	}
	st.tstate = threadReady
	n.dispatch(ctx)
}

// Handle implements psim.LP.
func (n *node) Handle(ctx *psim.Ctx, ev *psim.Event) {
	n.view.ctx = ctx
	switch ev.Kind {
	case kReq:
		if n.x != nil && n.refused(ctx, ev) {
			return
		}
		n.arrive(ctx, hmsg{
			kind:    KindRequest,
			src:     ev.Src,
			svc:     ev.Msg.I0,
			reply:   ev.Msg.I1,
			sent:    ev.Msg.F0,
			arrived: ev.Time,
		})
	case kRep:
		if n.x != nil && n.refused(ctx, ev) {
			return
		}
		n.arrive(ctx, hmsg{
			kind:    KindReply,
			src:     ev.Src,
			svc:     ev.Msg.I0,
			reply:   -1,
			sent:    ev.Msg.F0,
			arrived: ev.Time,
			reqSent: ev.Msg.F1,
			reqArr:  ev.Msg.F2,
			reqDone: ev.Msg.F3,
		})
	case kSendReq, kSendRep:
		n.arrive(ctx, hmsg{
			kind:    msgKind(ev.Kind),
			src:     ev.Src,
			svc:     ev.Msg.I0,
			reply:   ev.Msg.I1,
			oneway:  true,
			sent:    ev.Msg.F0,
			arrived: ev.Time,
			reqSent: ev.Msg.F1,
			tag:     ev.Msg.U0,
		})
	case kNackReq:
		n.inject(ctx, int(ev.Src), kReq, ev.Msg)
	case kNackRep:
		n.inject(ctx, int(ev.Src), kRep, ev.Msg)
	case kHandlerDone:
		n.handlerDone(ctx)
	case kThreadDone:
		// The run token invalidates completions of preempted runs (psim
		// has no event cancellation; the resumed run carries a new token).
		if ev.Msg.U0 == n.st.runSeq && n.st.tstate == threadRunning {
			n.threadDone(ctx)
		}
	case kReset:
		n.resetStats(ev.Time)
	default:
		panic(fmt.Sprintf("machine: node %d received unknown event kind %d", ctx.Self(), ev.Kind))
	}
}

// refused applies the extras to an arriving message: a full NI queue
// NACKs it back to its sender, which re-injects it RetryDelay cycles
// after the NACK's own Latency trip; an accepted one is reported to
// the observer.
func (n *node) refused(ctx *psim.Ctx, ev *psim.Event) bool {
	if c := n.cfg.NIQueueCap; c > 0 && n.st.reqPresent+n.st.repPresent >= c {
		n.x.nacks++
		kind := kNackReq
		if ev.Kind == kRep {
			kind = kNackRep
		}
		ctx.Send(int(ev.Src), n.cfg.Latency.Sample(ctx.Rand())+n.cfg.RetryDelay, kind, ev.Msg)
		return true
	}
	n.observe(Observation{Kind: ObsArrived, Node: ctx.Self(), Msg: msgKind(ev.Kind),
		Src: int(ev.Src), Dst: ctx.Self(), Seq: ev.Msg.U0, At: ev.Time})
	return false
}

// msgKind is the handler class of a request or reply event kind.
func msgKind(kind int32) Kind {
	if kind == kRep || kind == kSendRep {
		return KindReply
	}
	return KindRequest
}

// observe reports o to the observer, if there is one.
func (n *node) observe(o Observation) {
	if n.cfg.Observer != nil {
		n.cfg.Observer.Observe(o)
	}
}

// send injects a new message from a node with extras; the observer
// hears of it first. A node without extras sends with one Latency
// sample drawn from its stream.
func (n *node) send(ctx *psim.Ctx, dst int, kind int32, m psim.Msg) {
	if n.cfg.Observer != nil {
		n.x.sentSeq++
		m.U0 = n.x.sentSeq
		n.observe(Observation{Kind: ObsSent, Node: ctx.Self(), Msg: msgKind(kind),
			Src: ctx.Self(), Dst: dst, Seq: m.U0, At: ctx.Now()})
	}
	n.inject(ctx, dst, kind, m)
}

// inject puts a message on the wire of a node with extras: one wire
// time (the pair's, or a Latency sample drawn from this node's stream)
// plus, with LinkOccupancy, the wait for the link and its occupancy.
// NACKed messages re-enter here. The delay never undercuts the
// lookahead Run declared; psim's send check enforces it anyway.
func (n *node) inject(ctx *psim.Ctx, dst int, kind int32, m psim.Msg) {
	var delay float64
	if n.cfg.PairLatency != nil {
		delay = n.cfg.PairLatency(ctx.Self(), dst)
	} else {
		delay = n.cfg.Latency.Sample(ctx.Rand())
	}
	if occ := n.cfg.LinkOccupancy; occ > 0 {
		now := ctx.Now()
		start := max(now, n.x.linkFree[dst])
		n.x.linkFree[dst] = start + occ
		delay += start - now + occ
	}
	ctx.Send(dst, delay, kind, m)
}

// sendMsg injects a one-way Send message. The NI-queue bound and the
// observer account only Request traffic, so they refuse these.
func (n *node) sendMsg(ctx *psim.Ctx, dst int, kind int32, svc, thread int32, tag uint64, val float64) {
	if n.cfg.NIQueueCap > 0 || n.cfg.Observer != nil {
		panic(fmt.Sprintf("machine: node %d sends a one-way message, which NIQueueCap and the Observer do not support", ctx.Self()))
	}
	m := psim.Msg{I0: svc, I1: thread, U0: tag, F0: ctx.Now(), F1: val}
	if n.x != nil {
		n.inject(ctx, dst, kind, m)
		return
	}
	ctx.Send(dst, n.cfg.Latency.Sample(ctx.Rand()), kind, m)
}

// Save implements psim.LP: a value copy of the node state (with the
// handler queue copied into the snapshot's own backing array) plus the
// program's snapshot. A reused snapshot keeps its queue array and hands
// its program snapshot back to the program.
func (n *node) Save(reuse any) any {
	s, _ := reuse.(*snap)
	if s == nil {
		s = new(snap)
	}
	q := s.st.handlerQ[:0]
	s.st = n.st
	s.st.handlerQ = append(q, n.st.handlerQ...)
	if n.prog != nil {
		s.prog = n.prog.Save(s.prog)
	}
	return s
}

// Restore implements psim.LP. The queue is copied into the node's own
// array, so the snapshot is not retained.
func (n *node) Restore(snapshot any) {
	s := snapshot.(*snap)
	q := n.st.handlerQ[:0]
	n.st = s.st
	n.st.handlerQ = append(q, s.st.handlerQ...)
	if n.prog != nil {
		n.prog.Restore(s.prog)
	}
}

// arrive queues an accepted message and re-dispatches the node.
func (n *node) arrive(ctx *psim.Ctx, h hmsg) {
	st := &n.st
	now := h.arrived
	switch h.kind {
	case KindRequest:
		st.reqArrivals++
		st.reqPresent++
		st.reqQ.Set(now, float64(st.reqPresent))
	case KindReply:
		st.repArrivals++
		st.repPresent++
		st.repQ.Set(now, float64(st.repPresent))
	}
	st.handlerQ = append(st.handlerQ, h)
	if depth := st.reqPresent + st.repPresent; depth > st.maxDepth {
		st.maxDepth = depth
	}
	n.dispatch(ctx)
}

// dispatch gives the node's processor to whatever should run next: in
// interrupt mode queued handlers first (preempting a running thread),
// then a ready thread; with a protocol processor, each independently.
func (n *node) dispatch(ctx *psim.Ctx) {
	st := &n.st
	if n.cfg.ProtocolProcessor {
		if !st.inService && len(st.handlerQ) > 0 {
			n.startHandler(ctx)
		}
		if st.tstate == threadReady {
			n.giveThreadCPU(ctx)
		}
		return
	}
	if st.inService {
		return // the in-service handler is atomic
	}
	if len(st.handlerQ) > 0 {
		if st.tstate == threadRunning {
			n.preempt(ctx)
		}
		n.startHandler(ctx)
		return
	}
	if st.tstate == threadReady {
		n.giveThreadCPU(ctx)
	}
}

// startHandler begins service of the next queued message; completion
// is a self-event after the sampled service time.
func (n *node) startHandler(ctx *psim.Ctx) {
	st := &n.st
	st.current = st.handlerQ[0]
	copy(st.handlerQ, st.handlerQ[1:])
	st.handlerQ = st.handlerQ[:len(st.handlerQ)-1]
	st.inService = true
	now := ctx.Now()
	switch st.current.kind {
	case KindRequest:
		st.busyReq.Set(now, 1)
	case KindReply:
		st.busyRep.Set(now, 1)
	}
	if n.x != nil {
		n.x.svcStart = now
	}
	svc := int(st.current.svc)
	if svc < 0 || svc >= len(n.cfg.Services) {
		panic(fmt.Sprintf("machine: node %d handler references unknown service %d", ctx.Self(), svc))
	}
	ctx.Send(ctx.Self(), n.cfg.Services[svc].Sample(ctx.Rand()), kHandlerDone, psim.Msg{})
}

// handlerDone completes the in-service handler: measurements, then the
// handler's effects (a Send message's hook, a request's reply, a
// reply's unblock).
func (n *node) handlerDone(ctx *psim.Ctx) {
	st := &n.st
	now := ctx.Now()
	h := st.current
	st.inService = false
	switch h.kind {
	case KindRequest:
		st.reqPresent--
		st.reqQ.Set(now, float64(st.reqPresent))
		st.busyReq.Set(now, 0)
		st.reqResp.Add(now - h.arrived)
	case KindReply:
		st.repPresent--
		st.repQ.Set(now, float64(st.repPresent))
		st.busyRep.Set(now, 0)
		st.repResp.Add(now - h.arrived)
	}
	switch {
	case h.oneway:
		if n.hook != nil {
			n.hook.Done(&n.view, Message{
				Kind: h.kind, Svc: int(h.svc), Thread: int(h.reply), Tag: h.tag, Val: h.reqSent,
				Src: int(h.src), Dst: ctx.Self(), Sent: h.sent, Arrived: h.arrived, Done: now,
			})
		}
	case h.kind == KindRequest:
		if h.reply >= 0 {
			m := psim.Msg{I0: h.reply, F0: now, F1: h.sent, F2: h.arrived, F3: now}
			if n.x != nil {
				n.send(ctx, int(h.src), kRep, m)
			} else {
				ctx.Send(int(h.src), n.cfg.Latency.Sample(ctx.Rand()), kRep, m)
			}
		}
	default:
		st.cycle = CycleInfo{
			ReqSent: h.reqSent, ReqArrived: h.reqArr, ReqDone: h.reqDone,
			RepSent: h.sent, RepArrived: h.arrived, RepDone: now,
		}
		if st.tstate != threadBlocked {
			panic(fmt.Sprintf("machine: node %d reply completed but thread is %v", ctx.Self(), st.tstate))
		}
		st.tstate = threadReady
	}
	if n.x != nil {
		n.observe(Observation{Kind: ObsHandler, Node: ctx.Self(), Msg: h.kind,
			Src: int(h.src), Dst: ctx.Self(), Arrived: h.arrived, Start: n.x.svcStart, At: now})
	}
	n.dispatch(ctx)
}

// preempt interrupts the running thread: bank the remaining work,
// invalidate the pending completion event, and mark the thread ready so
// it resumes once the handlers drain — on a node with several threads,
// from the front of the ready queue (preempt-resume).
func (n *node) preempt(ctx *psim.Ctx) {
	st := &n.st
	now := ctx.Now()
	st.remaining -= now - st.startedAt
	if st.remaining < 0 {
		st.remaining = 0 // floating-point fuzz only
	}
	st.runSeq++
	st.tstate = threadReady
	if t := n.mt; t != nil {
		t.state[t.cur] = threadReady
		t.ready = append(t.ready, 0)
		copy(t.ready[1:], t.ready)
		t.ready[0] = t.cur
	}
	st.threadBusy.Set(now, 0)
	if n.x != nil {
		n.observeThread(ctx)
	}
}

// observeThread reports the thread slice that ends now.
func (n *node) observeThread(ctx *psim.Ctx) {
	n.observe(Observation{Kind: ObsThread, Node: ctx.Self(), Start: n.st.startedAt, At: ctx.Now()})
}

// giveThreadCPU resumes banked work or advances the program.
func (n *node) giveThreadCPU(ctx *psim.Ctx) {
	if n.mt != nil {
		n.prog = n.mt.pop()
	}
	if n.st.remaining > 0 {
		n.startThreadRun(ctx)
		return
	}
	n.advanceThread(ctx)
}

// startThreadRun runs the thread for its remaining banked work.
func (n *node) startThreadRun(ctx *psim.Ctx) {
	st := &n.st
	now := ctx.Now()
	st.tstate = threadRunning
	st.startedAt = now
	st.threadBusy.Set(now, 1)
	ctx.Send(ctx.Self(), st.remaining, kThreadDone, psim.Msg{U0: st.runSeq})
}

// threadDone fires when a Compute finishes uninterrupted.
func (n *node) threadDone(ctx *psim.Ctx) {
	st := &n.st
	st.remaining = 0
	st.tstate = threadReady
	st.threadBusy.Set(ctx.Now(), 0)
	if n.x != nil {
		n.observeThread(ctx)
	}
	n.advanceThread(ctx)
}

// advanceThread executes the program's zero-duration actions until it
// starts a Compute, blocks, or halts.
func (n *node) advanceThread(ctx *psim.Ctx) {
	st := &n.st
	const maxZeroCostActions = 1 << 20
	for i := 0; ; i++ {
		if i == maxZeroCostActions {
			panic(fmt.Sprintf("machine: node %d program issued %d actions without consuming time", ctx.Self(), i))
		}
		action := n.prog.Next(&n.view)
		switch action.kind {
		case actionCompute:
			//lopc:allow floateq exactly-zero compute is a no-op action; any positive duration schedules an event
			if action.duration == 0 {
				continue
			}
			st.remaining = action.duration
			n.startThreadRun(ctx)
			return
		case actionRequest:
			if n.mt != nil {
				panic(fmt.Sprintf("machine: node %d has several threads; Request needs one (use Send and Block)", ctx.Self()))
			}
			if action.reply < 0 || int(action.reply) >= len(n.cfg.Services) {
				panic(fmt.Sprintf("machine: node %d request references unknown reply service %d", ctx.Self(), action.reply))
			}
			m := psim.Msg{I0: action.svc, I1: action.reply, F0: ctx.Now()}
			if n.x != nil {
				n.send(ctx, int(action.dst), kReq, m)
			} else {
				ctx.Send(int(action.dst), n.cfg.Latency.Sample(ctx.Rand()), kReq, m)
			}
			st.tstate = threadBlocked
			n.dispatch(ctx)
			return
		case actionSendReq, actionSendRep:
			kind := kSendReq
			if action.kind == actionSendRep {
				kind = kSendRep
			}
			n.sendMsg(ctx, int(action.dst), kind, action.svc, action.reply, action.tag, action.duration)
		case actionBlock:
			n.park(threadBlocked)
			n.dispatch(ctx)
			return
		case actionHalt:
			n.park(threadHalted)
			n.dispatch(ctx)
			return
		default:
			panic(fmt.Sprintf("machine: unknown action kind %d", action.kind))
		}
	}
}

// park takes the CPU's thread off it: blocked until a wake, or halted.
// On a node with several threads the next ready one follows.
func (n *node) park(s threadState) {
	t := n.mt
	if t == nil {
		n.st.tstate = s
		return
	}
	t.state[t.cur] = s
	if len(t.ready) > 0 {
		n.st.tstate = threadReady
	} else {
		n.st.tstate = threadBlocked
	}
}

// resetStats restarts the node's steady-state measurements at now.
func (n *node) resetStats(now float64) {
	st := &n.st
	st.reqQ.Reset(now, float64(st.reqPresent))
	st.repQ.Reset(now, float64(st.repPresent))
	st.busyReq.Reset(now, boolTo01(st.inService && st.current.kind == KindRequest))
	st.busyRep.Reset(now, boolTo01(st.inService && st.current.kind == KindReply))
	st.threadBusy.Reset(now, boolTo01(st.tstate == threadRunning))
	st.reqArrivals, st.repArrivals = 0, 0
	st.reqResp, st.repResp = stats.Tally{}, stats.Tally{}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// snapshot returns the node's measurements integrated to end.
func (n *node) snapshot(end float64) NodeStats {
	st := &n.st
	st.reqQ.Advance(end)
	st.repQ.Advance(end)
	st.busyReq.Advance(end)
	st.busyRep.Advance(end)
	st.threadBusy.Advance(end)
	return NodeStats{
		ReqQueue:      st.reqQ.Mean(),
		RepQueue:      st.repQ.Mean(),
		UtilReq:       st.busyReq.Mean(),
		UtilRep:       st.busyRep.Mean(),
		ThreadUtil:    st.threadBusy.Mean(),
		ReqArrivals:   st.reqArrivals,
		RepArrivals:   st.repArrivals,
		ReqResponse:   st.reqResp,
		RepResponse:   st.repResp,
		MaxQueueDepth: st.maxDepth,
		Elapsed:       st.reqQ.Elapsed(),
	}
}
