package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// NonBlockingConfig describes the non-blocking variant of the
// homogeneous pattern (the paper's future-work extension): each thread
// alternates W cycles of work with a fire-and-forget request to a
// uniformly random peer; the reply handler deposits its result without
// unblocking anything, so the thread always has work and requests
// overlap computation.
type NonBlockingConfig struct {
	// P is the number of nodes.
	P int
	// Work, Latency, Service are as in AllToAllConfig.
	Work, Latency, Service dist.Distribution
	// WarmupCycles and MeasureCycles count sends per thread.
	WarmupCycles, MeasureCycles int
	// ProtocolProcessor runs handlers beside the thread rather than on
	// it.
	ProtocolProcessor bool
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c NonBlockingConfig) validate() error {
	switch {
	case c.P < 2:
		return fmt.Errorf("workload: non-blocking needs P >= 2, got %d", c.P)
	case c.Work == nil || c.Latency == nil || c.Service == nil:
		return fmt.Errorf("workload: nil distribution in config")
	case c.MeasureCycles < 1:
		return fmt.Errorf("workload: MeasureCycles = %d", c.MeasureCycles)
	case c.WarmupCycles < 0:
		return fmt.Errorf("workload: WarmupCycles = %d", c.WarmupCycles)
	}
	return nil
}

// NonBlockingResult holds the measured statistics.
type NonBlockingResult struct {
	// X is per-thread throughput: 1 / mean inter-send time.
	X float64
	// CycleTime is the time between a thread's consecutive sends.
	CycleTime stats.Tally
	// Latency is the time from injecting a request to its reply handler
	// completing at home.
	Latency stats.Tally
	// Rq and Ry are handler response times (arrival to completion).
	Rq, Ry stats.Tally
	// HandlerUtil is the measured fraction of processor time spent in
	// handlers, averaged over nodes, each over its own window: from its
	// thread's last warmup send until the thread halts.
	HandlerUtil float64
}

// nbProg drives one node: compute, fire a request, repeat. Its hook
// answers other nodes' requests and takes its own replies; a request
// carries its send time and whether it is measured, and its reply
// carries them home. The node's measurement window opens at its own
// warmup boundary and closes when its thread halts.
type nbProg struct {
	machine.NoSnapshot
	cfg                    *NonBlockingConfig
	sends                  int
	working                bool // a Compute was just issued; next step is the send
	started                bool
	lastSend               float64
	cycle, latency, rq, ry stats.Tally
	handlerUtil            float64
}

// Next implements machine.Program.
func (p *nbProg) Next(v *machine.NodeView) machine.Action {
	cfg := p.cfg
	if !p.working {
		// Start (or continue with) a work period.
		if p.sends >= cfg.WarmupCycles+cfg.MeasureCycles {
			s := v.Stats()
			p.handlerUtil = s.UtilReq + s.UtilRep
			return machine.Halt()
		}
		p.working = true
		return machine.Compute(cfg.Work.Sample(v.Rand()))
	}

	// Work finished: fire the request and loop back to working state.
	p.working = false
	now := v.Now()
	m := machine.Message{Kind: machine.KindRequest, Val: now}
	if p.sends >= cfg.WarmupCycles {
		m.Tag = 1
		if p.started {
			p.cycle.Add(now - p.lastSend)
		}
	}
	p.started = true
	p.lastSend = now
	p.sends++
	if p.sends == cfg.WarmupCycles {
		v.ResetStats()
	}
	return machine.Send(UniformPattern{}.Dest(v), m)
}

// Done implements machine.Hook.
func (p *nbProg) Done(v *machine.NodeView, m machine.Message) {
	measured := m.Tag == 1
	if m.Kind == machine.KindRequest {
		if measured {
			p.rq.Add(m.Done - m.Arrived)
		}
		m.Kind = machine.KindReply
		v.Send(m.Src, m)
		return
	}
	if measured {
		p.ry.Add(m.Done - m.Arrived)
		p.latency.Add(m.Done - m.Val)
	}
}

// RunNonBlocking executes the non-blocking workload.
func RunNonBlocking(cfg NonBlockingConfig) (NonBlockingResult, error) {
	if err := cfg.validate(); err != nil {
		return NonBlockingResult{}, err
	}
	progs, hooks, nodes := make([]machine.Program, cfg.P), make([]machine.Hook, cfg.P), make([]*nbProg, cfg.P)
	for i := range nodes {
		nodes[i] = &nbProg{cfg: &cfg}
		progs[i], hooks[i] = nodes[i], nodes[i]
	}
	if _, err := cfg.Par.Run(machine.Config{
		P:                 cfg.P,
		Latency:           cfg.Latency,
		Services:          []dist.Distribution{cfg.Service},
		Programs:          progs,
		Hooks:             hooks,
		ProtocolProcessor: cfg.ProtocolProcessor,
		Seed:              cfg.Seed,
	}); err != nil {
		return NonBlockingResult{}, err
	}
	var res NonBlockingResult
	for _, p := range nodes {
		res.CycleTime.Merge(&p.cycle)
		res.Latency.Merge(&p.latency)
		res.Rq.Merge(&p.rq)
		res.Ry.Merge(&p.ry)
		res.HandlerUtil += p.handlerUtil / float64(cfg.P)
	}
	if mean := res.CycleTime.Mean(); mean > 0 {
		res.X = 1 / mean
	}
	return res, nil
}
