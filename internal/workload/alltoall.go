package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// AllToAllConfig describes an all-to-all simulation run: every node
// alternates local work with a blocking request to a peer chosen by
// Pattern; the request handler sends a reply; the reply handler unblocks
// the thread.
type AllToAllConfig struct {
	// P is the number of nodes.
	P int
	// Work is the distribution of local work per cycle (mean W).
	Work dist.Distribution
	// Latency is the per-trip network latency distribution (mean St).
	Latency dist.Distribution
	// Service is the handler service distribution (mean So, SCV C²),
	// used for both request and reply handlers.
	Service dist.Distribution
	// Pattern picks request destinations; nil means UniformPattern.
	Pattern Pattern
	// WarmupCycles and MeasureCycles are per-thread cycle counts: the
	// first WarmupCycles cycles are discarded, the next MeasureCycles
	// are measured, then the thread halts.
	WarmupCycles, MeasureCycles int
	// ProtocolProcessor runs handlers on per-node protocol processors
	// (the shared-memory variant).
	ProtocolProcessor bool
	// Seed roots the run's random streams.
	Seed uint64
	// Observer, when non-nil, receives the machine's structural events
	// (see machine.Observer; sequential core only); internal/trace
	// implements it for Chrome-trace export.
	Observer machine.Observer
	// LinkOccupancy, NIQueueCap and RetryDelay relax the paper's Ch. 2
	// network simplifications (see machine.Config); zero values give the
	// paper's machine.
	LinkOccupancy float64
	NIQueueCap    int
	RetryDelay    float64
	// PairLatency optionally gives every ordered node pair its own
	// positive wire time (see machine.Config.PairLatency).
	PairLatency func(src, dst int) float64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c AllToAllConfig) validate() error {
	switch {
	case c.P < 2:
		return fmt.Errorf("workload: all-to-all needs P >= 2, got %d", c.P)
	case c.Work == nil || c.Latency == nil || c.Service == nil:
		return fmt.Errorf("workload: nil distribution in config")
	case c.MeasureCycles < 1:
		return fmt.Errorf("workload: MeasureCycles = %d", c.MeasureCycles)
	case c.WarmupCycles < 0:
		return fmt.Errorf("workload: WarmupCycles = %d", c.WarmupCycles)
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(c.LinkOccupancy >= 0) || math.IsInf(c.LinkOccupancy, 0):
		return fmt.Errorf("workload: invalid LinkOccupancy %v", c.LinkOccupancy)
	case !(c.RetryDelay >= 0) || math.IsInf(c.RetryDelay, 0):
		return fmt.Errorf("workload: invalid RetryDelay %v", c.RetryDelay)
	}
	return nil
}

// AllToAllResult holds the measured per-cycle statistics, aligned with
// the model's quantities.
type AllToAllResult struct {
	// R is the complete compute/request cycle time (reply completion to
	// reply completion).
	R stats.Tally
	// Rw is the thread residence: from becoming ready (previous reply
	// handler completion) to injecting the next request, including
	// interference from request handlers.
	Rw stats.Tally
	// Rq is the request handler response at the remote node (arrival to
	// completion: queueing plus service).
	Rq stats.Tally
	// Ry is the reply handler response at the home node.
	Ry stats.Tally
	// Net is the total wire time per cycle (both trips).
	Net stats.Tally
	// Machine aggregates node-level measurements, each node's from its
	// own warmup boundary. Its handler queue lengths and utilizations
	// come from Little's law over the measured cycles: every cycle
	// sends one request and receives one reply, so machine-wide each
	// node sees one of each per mean R. ReqQueue is mean Rq ÷ mean R
	// and UtilReq is the mean measured request-handler service ÷
	// mean R, the service being the nodes' request-handler busy time
	// over the handlers they completed; RepQueue and UtilRep are the
	// same for replies, and ThreadUtil is the mean measured compute per
	// cycle ÷ mean R. (Time averages integrated to the run's last event
	// would count the idle tail after early nodes halt: 80% low on Qq
	// and 41% on ThreadUtil under a 0.2 hotspot.)
	Machine machine.MachineStats
	// X is the system throughput implied by the measured mean cycle
	// time: P / mean(R).
	X float64
	// Nacks counts messages bounced off full NI queues (finite
	// NIQueueCap only).
	Nacks int64
}

const (
	phaseStart = iota
	phaseSend
	phaseUnblocked
	phaseBlock // multi-hop and multithread: sent, block next
)

// atRun is the immutable configuration shared by every all-to-all node
// program.
type atRun struct {
	work            dist.Distribution
	warmup, measure int
	pattern         Pattern
}

// atProg drives one node: compute, a blocking request to the pattern's
// destination, and the reply that unblocks it. The round-trip
// timestamps come from the node's CycleInfo; the measurements live in
// program state so optimistic rollback unwinds them.
type atProg struct {
	run                *atRun
	phase              int
	cycle              int
	ready              float64
	r, rw, rq, ry, net stats.Tally
}

// Next implements machine.Program.
func (p *atProg) Next(v *machine.NodeView) machine.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		return machine.Request(p.run.pattern.Dest(v), 0, 0)
	case phaseUnblocked:
		p.endCycle(v)
		if p.cycle >= p.run.warmup+p.run.measure {
			return machine.Halt()
		}
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return machine.Compute(p.run.work.Sample(v.Rand()))
}

// endCycle records the completed cycle and rolls ready to the reply
// handler's completion, so the next cycle's Rw starts there (not at the
// instant the thread regained the CPU, which may be later if request
// handlers were queued — that wait belongs to the next cycle's Rw, per
// the BKT decomposition).
func (p *atProg) endCycle(v *machine.NodeView) {
	c := v.Cycle()
	if p.cycle >= p.run.warmup {
		p.r.Add(c.RepDone - p.ready)
		p.rw.Add(c.ReqSent - p.ready)
		p.rq.Add(c.ReqDone - c.ReqArrived)
		p.ry.Add(c.RepDone - c.RepArrived)
		p.net.Add((c.ReqArrived - c.ReqSent) + (c.RepArrived - c.RepSent))
	}
	p.cycle++
	if p.cycle == p.run.warmup {
		v.ResetStats()
	}
	p.ready = c.RepDone
}

// Save and Restore implement machine.Program; the state is all values.
func (p *atProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *atProg) Restore(snapshot any) { *p = *snapshot.(*atProg) }

// RunAllToAll executes one all-to-all simulation and returns the
// measured statistics.
func RunAllToAll(cfg AllToAllConfig) (AllToAllResult, error) {
	if err := cfg.validate(); err != nil {
		return AllToAllResult{}, err
	}
	run := &atRun{
		work:    cfg.Work,
		warmup:  cfg.WarmupCycles,
		measure: cfg.MeasureCycles,
		pattern: cfg.Pattern,
	}
	if run.pattern == nil {
		run.pattern = UniformPattern{}
	}
	progs := make([]machine.Program, cfg.P)
	nodes := make([]*atProg, cfg.P)
	for i := range progs {
		nodes[i] = &atProg{run: run}
		progs[i] = nodes[i]
	}
	sres, err := cfg.Par.Run(machine.Config{
		P:                 cfg.P,
		Latency:           cfg.Latency,
		Services:          []dist.Distribution{cfg.Service},
		Programs:          progs,
		ProtocolProcessor: cfg.ProtocolProcessor,
		Seed:              cfg.Seed,
		LinkOccupancy:     cfg.LinkOccupancy,
		NIQueueCap:        cfg.NIQueueCap,
		RetryDelay:        cfg.RetryDelay,
		PairLatency:       cfg.PairLatency,
		Observer:          cfg.Observer,
	})
	if err != nil {
		return AllToAllResult{}, err
	}
	var res AllToAllResult
	for _, p := range nodes {
		res.R.Merge(&p.r)
		res.Rw.Merge(&p.rw)
		res.Rq.Merge(&p.rq)
		res.Ry.Merge(&p.ry)
		res.Net.Merge(&p.net)
	}
	res.Machine = sres.Aggregate()
	res.Nacks = sres.Nacks
	if mean := res.R.Mean(); mean > 0 {
		res.X = float64(cfg.P) / mean
		// Each node's busy time is its utilization times its window.
		var reqBusy, repBusy, compute float64
		for i := range sres.Nodes {
			ns := &sres.Nodes[i]
			reqBusy += ns.UtilReq * ns.Elapsed
			repBusy += ns.UtilRep * ns.Elapsed
			compute += ns.ThreadUtil * ns.Elapsed
		}
		m := &res.Machine
		m.ReqQueue = res.Rq.Mean() / mean
		m.RepQueue = res.Ry.Mean() / mean
		m.UtilReq = reqBusy / float64(max(m.ReqResponse.N(), 1)) / mean
		m.UtilRep = repBusy / float64(max(m.RepResponse.N(), 1)) / mean
		m.ThreadUtil = compute / float64(res.R.N()) / mean
	}
	return res, nil
}
