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

// cycleTimestamps carries one in-flight cycle's measurements.
type cycleTimestamps struct {
	ready   float64 // previous reply completion (thread became ready)
	send    float64 // request injection
	req     *machine.Message
	rep     *machine.Message
	repDone float64
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

type mhProgram struct {
	run   *multiHopRun
	phase int
	cycle int
	cur   cycleTimestamps
	hopRq []float64 // per-hop response times of the in-flight cycle
}

type multiHopRun struct {
	cfg MultiHopConfig
	res *MultiHopResult
}

// Next implements machine.Program.
func (p *mhProgram) Next(m *machine.Machine, self int) machine.Action {
	switch p.phase {
	case phaseStart:
		p.cur.ready = m.Now()
		p.phase = phaseSend
		return machine.Compute(p.run.cfg.Work.Sample(m.Rand(self)))

	case phaseSend:
		p.cur.send = m.Now()
		p.phase = phaseUnblocked
		p.hopRq = p.hopRq[:0]
		return machine.SendAndBlock(p.buildHop(m, self, self, 1))

	case phaseUnblocked:
		p.endCycle()
		if p.cycle >= p.run.cfg.WarmupCycles+p.run.cfg.MeasureCycles {
			return machine.Halt()
		}
		p.phase = phaseSend
		return machine.Compute(p.run.cfg.Work.Sample(m.Rand(self)))

	default:
		panic(fmt.Sprintf("workload: invalid multi-hop phase %d", p.phase))
	}
}

// buildHop constructs the request message for hop number `hop` (1-based)
// leaving node `from`, on behalf of originator `origin`. The randomness
// for destination choice is drawn from the *sending* node's stream, so
// forwarding decisions are reproducible.
func (p *mhProgram) buildHop(m *machine.Machine, origin, from, hop int) *machine.Message {
	// Uniformly random node different from the sender.
	dst := m.Rand(from).Intn(m.P() - 1)
	if dst >= from {
		dst++
	}
	msg := &machine.Message{
		Src: from, Dst: dst, Kind: machine.KindRequest, Service: p.run.cfg.Service,
	}
	msg.OnComplete = func(m *machine.Machine, done *machine.Message) {
		p.hopRq = append(p.hopRq, done.Done-done.Arrived)
		if hop < p.run.cfg.Hops {
			m.Send(p.buildHop(m, origin, done.Dst, hop+1))
			return
		}
		rep := &machine.Message{
			Src: done.Dst, Dst: origin, Kind: machine.KindReply, Service: p.run.cfg.Service,
		}
		p.cur.rep = rep
		rep.OnComplete = func(m *machine.Machine, rmsg *machine.Message) {
			p.cur.repDone = rmsg.Done
			m.Unblock(origin)
		}
		m.Send(rep)
	}
	return msg
}

func (p *mhProgram) endCycle() {
	c := &p.cur
	if p.cycle >= p.run.cfg.WarmupCycles {
		res := p.run.res
		res.R.Add(c.repDone - c.ready)
		res.Rw.Add(c.send - c.ready)
		for _, rq := range p.hopRq {
			res.RqPerHop.Add(rq)
		}
		res.Ry.Add(c.rep.Done - c.rep.Arrived)
	}
	p.cycle++
	p.cur = cycleTimestamps{ready: c.repDone}
}

// RunMultiHop executes one multi-hop simulation.
func RunMultiHop(cfg MultiHopConfig) (MultiHopResult, error) {
	if err := cfg.validate(); err != nil {
		return MultiHopResult{}, err
	}
	m := machine.New(machine.Config{
		P:          cfg.P,
		NetLatency: cfg.Latency,
		Seed:       cfg.Seed,
	})
	run := &multiHopRun{cfg: cfg, res: &MultiHopResult{}}
	for i := 0; i < cfg.P; i++ {
		m.SetProgram(i, &mhProgram{run: run})
	}
	m.Start()
	m.Run()
	res := run.res
	if mean := res.R.Mean(); mean > 0 {
		res.X = float64(cfg.P) / mean
	}
	return *res, nil
}
