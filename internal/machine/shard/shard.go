// Package shard maps the LoPC machine onto the parallel simulation
// core: one psim logical process per node, carrying the node's handler
// processor, its computation thread, and its steady-state measurements.
// The interconnect's guaranteed minimum latency (the paper's wire time
// St, dist.LowerBound of the latency distribution) becomes the psim
// lookahead, which is what lets the conservative and optimistic cores
// overlap nodes without breaking the event order.
//
// The sharded machine runs one thread per node with the blocking
// request/reply protocol built in (Request), and references service
// times by index into a shared table so events stay flat values. It
// keeps the paper's scheduling semantics — atomic handlers,
// preempt-resume thread priority, the optional protocol processor —
// and reports the per-node measurements of machine.NodeStats.
//
// Four extras relax the paper's Ch. 2 machine for ablation and
// inspection: LinkOccupancy serializes each ordered link, NIQueueCap
// bounds the handler FIFO with NACK and retry, PairLatency gives every
// ordered pair its own wire time, and an Observer sees the run's
// structural events. The sequential and conservative cores run them
// all. The optimistic core refuses the two stateful extras and the
// Observer: their state lives outside the checkpointed node state.
package shard

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Event kinds of the sharded machine's psim traffic.
const (
	kReq         int32 = iota + 1 // cross-node request (I0 service, I1 reply service, F0 sent)
	kRep                          // cross-node reply (I0 service, F0 sent, F1-F3 request timestamps)
	kHandlerDone                  // self: the in-service handler completes
	kThreadDone                   // self: the current Compute finishes (U0 run token)
	kReset                        // self: restart steady-state measurements
	kNackReq                      // a full NI queue bounced a request back to its sender (kReq payload)
	kNackRep                      // a full NI queue bounced a reply back to its sender (kRep payload)
)

type actionKind int

const (
	actionCompute actionKind = iota
	actionRequest
	actionHalt
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

// Action is one step of a sharded node's computation thread. Construct
// with Compute, Request, and Halt.
type Action struct {
	kind     actionKind
	duration float64
	dst      int
	svc      int32
	reply    int32
}

// Compute occupies the thread for d cycles of preemptible work.
func Compute(d float64) Action {
	if d < 0 {
		panic(fmt.Sprintf("shard: negative compute duration %v", d))
	}
	return Action{kind: actionCompute, duration: d}
}

// Request sends a blocking request to node dst: the request handler
// runs service svc there, its reply runs service reply back here, and
// the reply's completion unblocks the thread (the LoPC request/reply
// round trip). svc and reply index Config.Services.
func Request(dst int, svc, reply int) Action {
	return Action{kind: actionRequest, dst: dst, svc: int32(svc), reply: int32(reply)}
}

// Halt terminates the thread.
func Halt() Action { return Action{kind: actionHalt} }

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

// NodeView is the program's window onto its node during Next.
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
// current time — the per-node analogue of machine.Machine.ResetStats,
// which a program calls at its own warmup boundary.
func (v *NodeView) ResetStats() { v.n.resetStats(v.ctx.Now()) }

// hmsg is one handler-processor message in a node's NI queue.
type hmsg struct {
	kind    machine.Kind
	src     int32
	svc     int32 // service selector for this handler
	reply   int32 // requests: reply service selector (< 0: no reply)
	sent    float64
	arrived float64
	reqSent float64 // replies: the originating request's timestamps
	reqArr  float64
	reqDone float64
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
	prog Program // nil: the node only runs handlers
	st   nodeState
	view NodeView

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

// Observation is one structural event of a sharded run. Times are
// simulated cycles.
type Observation struct {
	Kind ObsKind
	Node int
	// Msg, Src and Dst describe the message of a message observation.
	// Seq numbers the messages of each source, so (Src, Seq) identifies
	// a message across its send and its arrival.
	Msg      machine.Kind
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

// Config describes a sharded machine run.
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

// MachineStats is the machine-wide measurement Aggregate returns: the
// same quantities the single-threaded machine reports.
type MachineStats = machine.MachineStats

// Result is the outcome of a sharded run.
type Result struct {
	// Nodes holds per-node measurements, integrated to the common end
	// time (Until, or the last committed event under quiescence).
	Nodes []machine.NodeStats
	// Run reports the synchronization core's statistics.
	Run psim.RunStats
	// Nacks counts messages bounced off full NI queues over the whole
	// run (NIQueueCap only).
	Nacks int64
}

// Aggregate folds the per-node measurements machine-wide, exactly as
// machine.Machine.Stats does: arithmetic means of per-node time
// averages, merged response tallies, summed arrival counts.
func (r *Result) Aggregate() machine.MachineStats {
	var agg machine.MachineStats
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

// Run executes the sharded machine under the configured psim core and
// returns per-node measurements plus core statistics. For a fixed seed
// the committed event sequence — and therefore every measurement — is
// identical across cores and job counts.
func Run(cfg Config) (Result, error) {
	if cfg.P < 1 {
		return Result{}, fmt.Errorf("shard: P = %d, need at least one node", cfg.P)
	}
	if cfg.Latency == nil {
		return Result{}, fmt.Errorf("shard: Latency distribution is required")
	}
	if len(cfg.Programs) != 0 && len(cfg.Programs) != cfg.P {
		return Result{}, fmt.Errorf("shard: %d programs for %d nodes", len(cfg.Programs), cfg.P)
	}
	for i, s := range cfg.Services {
		if s == nil {
			return Result{}, fmt.Errorf("shard: service %d is nil", i)
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
	res := Result{Nodes: make([]machine.NodeStats, cfg.P), Run: rs}
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
		return 0, fmt.Errorf("shard: invalid LinkOccupancy %v", cfg.LinkOccupancy)
	case cfg.NIQueueCap < 0:
		return 0, fmt.Errorf("shard: invalid NIQueueCap %d", cfg.NIQueueCap)
	case !(cfg.RetryDelay >= 0) || math.IsInf(cfg.RetryDelay, 0):
		return 0, fmt.Errorf("shard: invalid RetryDelay %v", cfg.RetryDelay)
	case cfg.Sync == psim.SyncOpt && (cfg.LinkOccupancy > 0 || cfg.NIQueueCap > 0):
		return 0, fmt.Errorf("shard: the opt core cannot roll back LinkOccupancy or NIQueueCap state; use seq or cons")
	case cfg.Observer != nil && cfg.Sync != psim.SyncSeq:
		return 0, fmt.Errorf("shard: an Observer needs the seq core, not %v", cfg.Sync)
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
				return 0, fmt.Errorf("shard: pair latency %v for %d->%d, need a positive finite time", d, src, dst)
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
	if n.prog == nil {
		st.tstate = threadIdle
		return
	}
	st.tstate = threadReady
	n.dispatch(ctx)
}

// Handle implements psim.LP.
func (n *node) Handle(ctx *psim.Ctx, ev psim.Event) {
	n.view.ctx = ctx
	switch ev.Kind {
	case kReq:
		if n.x != nil && n.refused(ctx, ev) {
			return
		}
		n.arrive(ctx, hmsg{
			kind:    machine.KindRequest,
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
			kind:    machine.KindReply,
			src:     ev.Src,
			svc:     ev.Msg.I0,
			reply:   -1,
			sent:    ev.Msg.F0,
			arrived: ev.Time,
			reqSent: ev.Msg.F1,
			reqArr:  ev.Msg.F2,
			reqDone: ev.Msg.F3,
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
		panic(fmt.Sprintf("shard: node %d received unknown event kind %d", ctx.Self(), ev.Kind))
	}
}

// refused applies the extras to an arriving message: a full NI queue
// NACKs it back to its sender, which re-injects it RetryDelay cycles
// after the NACK's own Latency trip; an accepted one is reported to
// the observer.
func (n *node) refused(ctx *psim.Ctx, ev psim.Event) bool {
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
func msgKind(kind int32) machine.Kind {
	if kind == kRep {
		return machine.KindReply
	}
	return machine.KindRequest
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
	case machine.KindRequest:
		st.reqArrivals++
		st.reqPresent++
		st.reqQ.Set(now, float64(st.reqPresent))
	case machine.KindReply:
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

// dispatch mirrors Machine.dispatch for a single-thread node.
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
	case machine.KindRequest:
		st.busyReq.Set(now, 1)
	case machine.KindReply:
		st.busyRep.Set(now, 1)
	}
	if n.x != nil {
		n.x.svcStart = now
	}
	svc := int(st.current.svc)
	if svc < 0 || svc >= len(n.cfg.Services) {
		panic(fmt.Sprintf("shard: node %d handler references unknown service %d", ctx.Self(), svc))
	}
	ctx.Send(ctx.Self(), n.cfg.Services[svc].Sample(ctx.Rand()), kHandlerDone, psim.Msg{})
}

// handlerDone mirrors Machine.handlerDone: measurements, then the
// handler's effects (reply to a request, unblock on a reply).
func (n *node) handlerDone(ctx *psim.Ctx) {
	st := &n.st
	now := ctx.Now()
	h := st.current
	st.inService = false
	switch h.kind {
	case machine.KindRequest:
		st.reqPresent--
		st.reqQ.Set(now, float64(st.reqPresent))
		st.busyReq.Set(now, 0)
		st.reqResp.Add(now - h.arrived)
		if h.reply >= 0 {
			m := psim.Msg{I0: h.reply, F0: now, F1: h.sent, F2: h.arrived, F3: now}
			if n.x != nil {
				n.send(ctx, int(h.src), kRep, m)
			} else {
				ctx.Send(int(h.src), n.cfg.Latency.Sample(ctx.Rand()), kRep, m)
			}
		}
	case machine.KindReply:
		st.repPresent--
		st.repQ.Set(now, float64(st.repPresent))
		st.busyRep.Set(now, 0)
		st.repResp.Add(now - h.arrived)
		st.cycle = CycleInfo{
			ReqSent: h.reqSent, ReqArrived: h.reqArr, ReqDone: h.reqDone,
			RepSent: h.sent, RepArrived: h.arrived, RepDone: now,
		}
		if st.tstate != threadBlocked {
			panic(fmt.Sprintf("shard: node %d reply completed but thread is %v", ctx.Self(), st.tstate))
		}
		st.tstate = threadReady
	}
	if n.x != nil {
		n.observe(Observation{Kind: ObsHandler, Node: ctx.Self(), Msg: h.kind,
			Src: int(h.src), Dst: ctx.Self(), Arrived: h.arrived, Start: n.x.svcStart, At: now})
	}
	n.dispatch(ctx)
}

// preempt mirrors Machine.preempt: bank the remaining work, invalidate
// the pending completion event, and mark the thread ready so it resumes
// once the handlers drain (single thread, so preempt-resume priority is
// just the ready state).
func (n *node) preempt(ctx *psim.Ctx) {
	st := &n.st
	now := ctx.Now()
	st.remaining -= now - st.startedAt
	if st.remaining < 0 {
		st.remaining = 0 // floating-point fuzz only
	}
	st.runSeq++
	st.tstate = threadReady
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
// starts a Compute, blocks on a request, or halts.
func (n *node) advanceThread(ctx *psim.Ctx) {
	st := &n.st
	const maxZeroCostActions = 1 << 20
	for i := 0; ; i++ {
		if i == maxZeroCostActions {
			panic(fmt.Sprintf("shard: node %d program issued %d actions without consuming time", ctx.Self(), i))
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
			if action.reply < 0 || int(action.reply) >= len(n.cfg.Services) {
				panic(fmt.Sprintf("shard: node %d request references unknown reply service %d", ctx.Self(), action.reply))
			}
			m := psim.Msg{I0: action.svc, I1: action.reply, F0: ctx.Now()}
			if n.x != nil {
				n.send(ctx, action.dst, kReq, m)
			} else {
				ctx.Send(action.dst, n.cfg.Latency.Sample(ctx.Rand()), kReq, m)
			}
			st.tstate = threadBlocked
			n.dispatch(ctx)
			return
		case actionHalt:
			st.tstate = threadHalted
			n.dispatch(ctx)
			return
		default:
			panic(fmt.Sprintf("shard: unknown action kind %d", action.kind))
		}
	}
}

// resetStats mirrors Machine.ResetStats for one node.
func (n *node) resetStats(now float64) {
	st := &n.st
	st.reqQ.Reset(now, float64(st.reqPresent))
	st.repQ.Reset(now, float64(st.repPresent))
	st.busyReq.Reset(now, boolTo01(st.inService && st.current.kind == machine.KindRequest))
	st.busyRep.Reset(now, boolTo01(st.inService && st.current.kind == machine.KindReply))
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

// snapshot mirrors Machine.NodeStats, integrated to the common end
// time.
func (n *node) snapshot(end float64) machine.NodeStats {
	st := &n.st
	st.reqQ.Advance(end)
	st.repQ.Advance(end)
	st.busyReq.Advance(end)
	st.busyRep.Advance(end)
	st.threadBusy.Advance(end)
	return machine.NodeStats{
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
