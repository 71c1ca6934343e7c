package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// MultithreadConfig describes the multithreaded all-to-all workload:
// every node runs T computation threads, each independently cycling
// through W cycles of work and a blocking request to a uniformly random
// peer. While one thread waits for its reply the node's other threads
// use the CPU — Alewife-style latency tolerance.
type MultithreadConfig struct {
	// P is the number of nodes; T the threads per node.
	P, T int
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

func (c MultithreadConfig) validate() error {
	switch {
	case c.P < 2:
		return fmt.Errorf("workload: multithread needs P >= 2, got %d", c.P)
	case c.T < 1:
		return fmt.Errorf("workload: T = %d", c.T)
	case c.Work == nil || c.Latency == nil || c.Service == nil:
		return fmt.Errorf("workload: nil distribution in config")
	case c.MeasureCycles < 1:
		return fmt.Errorf("workload: MeasureCycles = %d", c.MeasureCycles)
	case c.WarmupCycles < 0:
		return fmt.Errorf("workload: WarmupCycles = %d", c.WarmupCycles)
	}
	return nil
}

// MultithreadResult holds the measured statistics.
type MultithreadResult struct {
	// R is the per-thread compute/request cycle time (reply completion
	// to reply completion).
	R stats.Tally
	// Rq and Ry are handler response times.
	Rq, Ry stats.Tally
	// XNode is the node-level cycle rate T/mean(R) implied by Little's
	// law on the closed per-node population.
	XNode float64
	// ThreadUtil is the measured CPU fraction spent running threads,
	// averaged over nodes, each over its own window: from its last
	// thread's last warmup cycle until its first thread halts.
	ThreadUtil float64
	// HandlerUtil is the measured CPU fraction spent in handlers, over
	// the same per-node windows.
	HandlerUtil float64
}

// mtNode is one node of the multithreaded workload: its threads, the
// hook that answers requests and wakes the thread a reply is for, and
// the node's tallies. The measurement window opens when the node's
// last thread finishes its warmup cycles and closes when its first
// thread halts.
type mtNode struct {
	cfg       *MultithreadConfig
	threads   []mtThread
	r, rq, ry stats.Tally
	warm      int // threads past their warmup cycles
	window    machine.NodeStats
	closed    bool
}

// mtThread is one thread's program: compute, send a request carrying
// the thread's id, and block until the reply wakes it.
type mtThread struct {
	machine.NoSnapshot
	node         *mtNode
	phase        int
	cycle        int
	ready, reply float64
}

// Next implements machine.Program.
func (p *mtThread) Next(v *machine.NodeView) machine.Action {
	n := p.node
	switch p.phase {
	case phaseSend:
		p.phase = phaseBlock
		m := machine.Message{Kind: machine.KindRequest, Thread: v.Thread()}
		if p.cycle >= n.cfg.WarmupCycles {
			m.Tag = 1
		}
		return machine.Send(UniformPattern{}.Dest(v), m)
	case phaseBlock:
		p.phase = phaseUnblocked
		return machine.Block()
	case phaseUnblocked:
		if p.cycle >= n.cfg.WarmupCycles {
			n.r.Add(p.reply - p.ready)
		}
		p.cycle++
		p.ready = p.reply
		if p.cycle == n.cfg.WarmupCycles {
			if n.warm++; n.warm == len(n.threads) {
				v.ResetStats()
			}
		}
		if p.cycle >= n.cfg.WarmupCycles+n.cfg.MeasureCycles {
			if !n.closed {
				n.closed = true
				n.window = v.Stats()
			}
			return machine.Halt()
		}
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return machine.Compute(n.cfg.Work.Sample(v.Rand()))
}

// Done implements machine.Hook: a request is answered with a reply for
// the same thread; a reply wakes its thread.
func (n *mtNode) Done(v *machine.NodeView, m machine.Message) {
	measured := m.Tag == 1
	if m.Kind == machine.KindRequest {
		if measured {
			n.rq.Add(m.Done - m.Arrived)
		}
		m.Kind = machine.KindReply
		v.Send(m.Src, m)
		return
	}
	if measured {
		n.ry.Add(m.Done - m.Arrived)
	}
	n.threads[m.Thread].reply = m.Done
	v.Wake(m.Thread)
}

// RunMultithread executes the multithreaded all-to-all workload.
func RunMultithread(cfg MultithreadConfig) (MultithreadResult, error) {
	if err := cfg.validate(); err != nil {
		return MultithreadResult{}, err
	}
	nodes := make([]*mtNode, cfg.P)
	threads := make([][]machine.Program, cfg.P)
	hooks := make([]machine.Hook, cfg.P)
	for i := range nodes {
		n := &mtNode{cfg: &cfg, threads: make([]mtThread, cfg.T)}
		threads[i] = make([]machine.Program, cfg.T)
		for j := range n.threads {
			n.threads[j].node = n
			threads[i][j] = &n.threads[j]
		}
		nodes[i], hooks[i] = n, n
	}
	if _, err := cfg.Par.Run(machine.Config{
		P:        cfg.P,
		Latency:  cfg.Latency,
		Services: []dist.Distribution{cfg.Service},
		Threads:  threads,
		Hooks:    hooks,
		Seed:     cfg.Seed,
	}); err != nil {
		return MultithreadResult{}, err
	}
	var res MultithreadResult
	for _, n := range nodes {
		res.R.Merge(&n.r)
		res.Rq.Merge(&n.rq)
		res.Ry.Merge(&n.ry)
		res.ThreadUtil += n.window.ThreadUtil / float64(cfg.P)
		res.HandlerUtil += (n.window.UtilReq + n.window.UtilRep) / float64(cfg.P)
	}
	if mean := res.R.Mean(); mean > 0 {
		res.XNode = float64(cfg.T) / mean
	}
	return res, nil
}
