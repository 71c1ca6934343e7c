package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// MultiHopConfig describes an all-to-all pattern whose requests are
// forwarded through several nodes before the reply returns — the
// "multi-hop" requests the general (Appendix A) model supports. Each
// hop runs a request handler on a uniformly random node distinct from
// the current one; the final hop's handler sends the reply straight
// back to the originator.
type MultiHopConfig struct {
	// P is the number of nodes.
	P int
	// Hops is the number of request-handler visits per cycle (1 is the
	// plain all-to-all pattern).
	Hops int
	// Work, Latency, Service are as in AllToAllConfig.
	Work, Latency, Service dist.Distribution
	// WarmupCycles and MeasureCycles are per-thread cycle counts.
	WarmupCycles, MeasureCycles int
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c MultiHopConfig) validate() error {
	switch {
	case c.P < 3:
		return fmt.Errorf("workload: multi-hop needs P >= 3 (forwarding needs a node besides source and holder), got %d", c.P)
	case c.Hops < 1:
		return fmt.Errorf("workload: Hops = %d", c.Hops)
	case c.Work == nil || c.Latency == nil || c.Service == nil:
		return fmt.Errorf("workload: nil distribution in config")
	case c.MeasureCycles < 1:
		return fmt.Errorf("workload: MeasureCycles = %d", c.MeasureCycles)
	case c.WarmupCycles < 0:
		return fmt.Errorf("workload: WarmupCycles = %d", c.WarmupCycles)
	}
	return nil
}

// MultiHopResult holds the measured statistics for a multi-hop run.
type MultiHopResult struct {
	// R is the complete cycle time.
	R stats.Tally
	// Rw is the thread residence per cycle.
	Rw stats.Tally
	// RqPerHop is the per-visit request handler response time.
	RqPerHop stats.Tally
	// Ry is the reply handler response time.
	Ry stats.Tally
	// X is P / mean(R).
	X float64
}

// mhProg drives one node: compute, send the cycle's first hop and
// block; its hook forwards other nodes' hops, answers final hops, and
// takes its own replies. A hop's message carries the originator, the
// hop number and whether the originator's cycle is measured, so each
// node tallies the hops it serves.
type mhProg struct {
	machine.NoSnapshot
	cfg                *MultiHopConfig
	phase              int
	cycle              int
	ready, send, reply float64
	r, rw, rq, ry      stats.Tally
}

// Next implements machine.Program.
func (p *mhProg) Next(v *machine.NodeView) machine.Action {
	switch p.phase {
	case phaseSend:
		p.send = v.Now()
		p.phase = phaseBlock
		measured := p.cycle >= p.cfg.WarmupCycles
		return machine.Send(UniformPattern{}.Dest(v), hopMsg(v.Self(), 1, measured))
	case phaseBlock:
		p.phase = phaseUnblocked
		return machine.Block()
	case phaseUnblocked:
		if p.cycle >= p.cfg.WarmupCycles {
			p.r.Add(p.reply - p.ready)
			p.rw.Add(p.send - p.ready)
		}
		p.cycle++
		p.ready = p.reply
		if p.cycle >= p.cfg.WarmupCycles+p.cfg.MeasureCycles {
			return machine.Halt()
		}
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return machine.Compute(p.cfg.Work.Sample(v.Rand()))
}

// Done implements machine.Hook.
func (p *mhProg) Done(v *machine.NodeView, m machine.Message) {
	origin, hop, measured := int(m.Tag>>32), int(m.Tag>>1)&(1<<31-1), m.Tag&1 == 1
	if m.Kind == machine.KindReply {
		if measured {
			p.ry.Add(m.Done - m.Arrived)
		}
		p.reply = m.Done
		v.Wake(0)
		return
	}
	if measured {
		p.rq.Add(m.Done - m.Arrived)
	}
	if hop < p.cfg.Hops {
		v.Send(UniformPattern{}.Dest(v), hopMsg(origin, hop+1, measured))
		return
	}
	m.Kind = machine.KindReply
	v.Send(origin, m)
}

// hopMsg is hop number hop of origin's request.
func hopMsg(origin, hop int, measured bool) machine.Message {
	tag := uint64(origin)<<32 | uint64(hop)<<1
	if measured {
		tag |= 1
	}
	return machine.Message{Kind: machine.KindRequest, Tag: tag}
}

// RunMultiHop executes one multi-hop simulation.
func RunMultiHop(cfg MultiHopConfig) (MultiHopResult, error) {
	if err := cfg.validate(); err != nil {
		return MultiHopResult{}, err
	}
	progs, hooks, nodes := make([]machine.Program, cfg.P), make([]machine.Hook, cfg.P), make([]*mhProg, cfg.P)
	for i := range nodes {
		nodes[i] = &mhProg{cfg: &cfg}
		progs[i], hooks[i] = nodes[i], nodes[i]
	}
	if _, err := cfg.Par.Run(machine.Config{
		P:        cfg.P,
		Latency:  cfg.Latency,
		Services: []dist.Distribution{cfg.Service},
		Programs: progs,
		Hooks:    hooks,
		Seed:     cfg.Seed,
	}); err != nil {
		return MultiHopResult{}, err
	}
	var res MultiHopResult
	for _, p := range nodes {
		res.R.Merge(&p.r)
		res.Rw.Merge(&p.rw)
		res.RqPerHop.Merge(&p.rq)
		res.Ry.Merge(&p.ry)
	}
	if mean := res.R.Mean(); mean > 0 {
		res.X = float64(cfg.P) / mean
	}
	return res, nil
}
