// Package shard maps the LoPC machine onto the parallel simulation
// core: one psim logical process per node, carrying the node's handler
// processor, its computation thread, and its steady-state measurements.
// The interconnect's guaranteed minimum latency (the paper's wire time
// St, dist.LowerBound of the latency distribution) becomes the psim
// lookahead, which is what lets the conservative and optimistic cores
// overlap nodes without breaking the event order.
//
// The sharded machine is a restricted sibling of machine.Machine, not a
// drop-in replacement: one thread per node, the blocking request/reply
// protocol built in (Request), service times referenced by index into a
// shared table so events stay flat values, and no Observer, link
// occupancy, or finite NI queues. Within that envelope it reproduces
// the same scheduling semantics — atomic handlers, preempt-resume
// thread priority, the optional protocol processor — and the same
// per-node measurements (machine.NodeStats), so workloads can switch
// between the single-threaded engine and the parallel cores and compare
// like with like.
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

	// Sync, Jobs, and Window select and tune the synchronization core;
	// Trace and Metrics are passed through to psim.
	Sync    psim.Sync
	Jobs    int
	Window  float64
	Trace   *psim.Trace
	Metrics *psim.Metrics
}

// Result is the outcome of a sharded run.
type Result struct {
	// Nodes holds per-node measurements, integrated to the common end
	// time (Until, or the last committed event under quiescence).
	Nodes []machine.NodeStats
	// Run reports the synchronization core's statistics.
	Run psim.RunStats
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
	nodes := make([]*node, cfg.P)
	lps := make([]psim.LP, cfg.P)
	for i := range nodes {
		n := &node{cfg: &cfg}
		if len(cfg.Programs) != 0 {
			n.prog = cfg.Programs[i]
		}
		n.view.n = n
		nodes[i] = n
		lps[i] = n
	}
	rs, err := psim.Run(psim.Config{
		LPs:       lps,
		Lookahead: dist.LowerBound(cfg.Latency),
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
	}
	return res, nil
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
		n.arrive(ctx, hmsg{
			kind:    machine.KindRequest,
			src:     ev.Src,
			svc:     ev.Msg.I0,
			reply:   ev.Msg.I1,
			sent:    ev.Msg.F0,
			arrived: ev.Time,
		})
	case kRep:
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

// arrive mirrors Machine.arrive for the unbounded-FIFO machine.
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
			ctx.Send(int(h.src), n.sampleLatency(ctx), kRep, psim.Msg{
				I0: h.reply,
				F0: now,
				F1: h.sent,
				F2: h.arrived,
				F3: now,
			})
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
			ctx.Send(action.dst, n.sampleLatency(ctx), kReq, psim.Msg{
				I0: action.svc,
				I1: action.reply,
				F0: ctx.Now(),
			})
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

// sampleLatency draws one network trip from this node's stream. The
// sample can never undercut the declared lookahead (dist.LowerBound is
// a proven bound); psim's send check enforces it anyway.
func (n *node) sampleLatency(ctx *psim.Ctx) float64 {
	return n.cfg.Latency.Sample(ctx.Rand())
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
