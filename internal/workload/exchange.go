package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
)

// ExchangeConfig describes a bulk-synchronous all-to-all personalized
// exchange: in each round every node sends one put to every other node
// on the carefully staggered CM-5-style schedule (node i's k-th message
// goes to node (i+k) mod P), then waits for its own P−1 incoming puts,
// and optionally runs a dissemination barrier before the next round.
//
// This workload reproduces the phenomenon the paper's introduction
// builds on: with deterministic costs and send spacing ≥ handler cost
// the schedule is perfectly contention-free (each round takes exactly
// (P−1)·o + l + h); with any handler-time variability the interleaving
// decays and receivers queue — unless barriers resynchronize the rounds,
// which is exactly why the original LogP study had to insert barriers
// on the CM-5.
type ExchangeConfig struct {
	// P is the number of nodes.
	P int
	// Rounds is the number of exchange rounds to run.
	Rounds int
	// SendOverhead is the sender-side injection cost o per message.
	SendOverhead float64
	// Latency is the wire-time distribution (mean l).
	Latency dist.Distribution
	// Handler is the receive-handler cost distribution (mean h).
	Handler dist.Distribution
	// Barrier inserts a dissemination barrier after each round.
	Barrier bool
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c ExchangeConfig) validate() error {
	switch {
	case c.P < 2:
		return fmt.Errorf("workload: exchange needs P >= 2, got %d", c.P)
	case c.Rounds < 1:
		return fmt.Errorf("workload: Rounds = %d", c.Rounds)
	case c.Latency == nil || c.Handler == nil:
		return fmt.Errorf("workload: nil distribution in config")
	// The negated comparison rejects NaN too: NaN >= 0 is false.
	case !(c.SendOverhead >= 0) || math.IsInf(c.SendOverhead, 0):
		return fmt.Errorf("workload: invalid send overhead %v", c.SendOverhead)
	}
	return nil
}

// ExchangeResult reports the measured exchange.
type ExchangeResult struct {
	// RoundEnd[r] is the time the last node finished round r (including
	// the barrier, if enabled).
	RoundEnd []float64
	// RoundTime[r] is RoundEnd[r] − RoundEnd[r−1].
	RoundTime []float64
	// DataTime[r] is the data phase of round r alone: from the round's
	// start to the last node completing its P−1 receives, excluding the
	// barrier. This is the quantity barriers are supposed to keep near
	// the schedule.
	DataTime []float64
	// Total is the completion time of the last round.
	Total float64
	// SchedulePerRound is the LogP (polling-model) per-round data
	// estimate: (P−1)·o + l + h. On this interrupt-driven machine even
	// the deterministic schedule runs somewhat above it, because
	// arriving handlers preempt the send loop — each of the P−1
	// arrivals can insert up to one handler time.
	SchedulePerRound float64
	// BarrierPerRound is the deterministic dissemination-barrier cost
	// ceil(log2 P)·(o + l + h), or 0 when barriers are disabled.
	BarrierPerRound float64
}

// MeanDataTime averages DataTime over [from, to), clamped.
func (r ExchangeResult) MeanDataTime(from, to int) float64 {
	return meanRange(r.DataTime, from, to)
}

// MeanRoundTime averages RoundTime over the given half-open round range
// (clamped to the available rounds).
func (r ExchangeResult) MeanRoundTime(from, to int) float64 {
	return meanRange(r.RoundTime, from, to)
}

func meanRange(xs []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(xs) {
		to = len(xs)
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for _, v := range xs[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

type exPhase int

const (
	exSendData exPhase = iota
	exWaitData
	exSendBar
	exWaitBar
)

// exchangeProgram drives one node through the rounds. Its hook counts
// the node's incoming puts and barrier messages, whose tag carries
// their round and barrier step, and wakes the thread when the message
// it waits for has arrived. Each node records when it finished each
// round's data phase and each round; the run's round ends are the
// maxima over nodes.
type exchangeProgram struct {
	machine.NoSnapshot
	cfg       *ExchangeConfig
	barRounds int
	round     int
	phase     exPhase
	k         int  // next data destination offset (1..P-1)
	br        int  // current barrier step
	paid      bool // the send overhead of the next message is spent
	blocked   bool
	// dataRecv[round] counts puts received; barRecv[round][step]
	// counts barrier messages per dissemination step.
	dataRecv          []int
	barRecv           [][]int
	dataEnd, roundEnd []float64
}

// exTag encodes a message's round and barrier step (-1 for a put).
func exTag(round, step int) uint64 { return uint64(round)<<32 | uint64(step+1) }

// Next implements machine.Program.
func (p *exchangeProgram) Next(v *machine.NodeView) machine.Action {
	cfg := p.cfg
	self := v.Self()
	for {
		switch p.phase {
		case exSendData:
			if p.k >= cfg.P {
				p.phase = exWaitData
				continue
			}
			if cfg.SendOverhead > 0 && !p.paid {
				p.paid = true
				return machine.Compute(cfg.SendOverhead)
			}
			p.paid = false
			dst := (self + p.k) % cfg.P
			p.k++
			return machine.Send(dst, machine.Message{Kind: machine.KindRequest, Tag: exTag(p.round, -1)})

		case exWaitData:
			if !p.arrived() {
				p.blocked = true
				return machine.Block()
			}
			p.dataEnd[p.round] = v.Now()
			if cfg.Barrier {
				p.phase = exSendBar
				p.br = 0
				continue
			}
			if p.endRound(v) {
				return machine.Halt()
			}

		case exSendBar:
			if cfg.SendOverhead > 0 && !p.paid {
				p.paid = true
				return machine.Compute(cfg.SendOverhead)
			}
			p.paid = false
			dst := (self + 1<<p.br) % cfg.P
			p.phase = exWaitBar
			return machine.Send(dst, machine.Message{Kind: machine.KindRequest, Tag: exTag(p.round, p.br)})

		case exWaitBar:
			if !p.arrived() {
				p.blocked = true
				return machine.Block()
			}
			p.barRecv[p.round][p.br]--
			p.br++
			if p.br < p.barRounds {
				p.phase = exSendBar
				continue
			}
			if p.endRound(v) {
				return machine.Halt()
			}

		default:
			panic(fmt.Sprintf("workload: invalid exchange phase %d", p.phase))
		}
	}
}

// arrived reports whether the message the program waits for is in.
func (p *exchangeProgram) arrived() bool {
	if p.phase == exWaitData {
		return p.dataRecv[p.round] >= p.cfg.P-1
	}
	return p.barRecv[p.round][p.br] >= 1
}

// endRound records the round's end and moves to the next; it reports
// whether that was the last round.
func (p *exchangeProgram) endRound(v *machine.NodeView) bool {
	p.roundEnd[p.round] = v.Now()
	p.round++
	p.phase = exSendData
	p.k = 1
	return p.round == p.cfg.Rounds
}

// Done implements machine.Hook.
func (p *exchangeProgram) Done(v *machine.NodeView, m machine.Message) {
	round, step := int(m.Tag>>32), int(m.Tag&(1<<32-1))-1
	if step < 0 {
		p.dataRecv[round]++
	} else {
		p.barRecv[round][step]++
	}
	if p.blocked && p.arrived() {
		p.blocked = false
		v.Wake(0)
	}
}

// RunExchange executes the bulk-synchronous exchange.
func RunExchange(cfg ExchangeConfig) (ExchangeResult, error) {
	if err := cfg.validate(); err != nil {
		return ExchangeResult{}, err
	}
	barRounds := 0
	for 1<<barRounds < cfg.P {
		barRounds++
	}
	progs, hooks, nodes := make([]machine.Program, cfg.P), make([]machine.Hook, cfg.P), make([]*exchangeProgram, cfg.P)
	for i := range nodes {
		p := &exchangeProgram{
			cfg:       &cfg,
			barRounds: barRounds,
			k:         1,
			dataRecv:  make([]int, cfg.Rounds+1),
			barRecv:   make([][]int, cfg.Rounds+1),
			dataEnd:   make([]float64, cfg.Rounds),
			roundEnd:  make([]float64, cfg.Rounds),
		}
		for r := range p.barRecv {
			p.barRecv[r] = make([]int, barRounds+1)
		}
		nodes[i], progs[i], hooks[i] = p, p, p
	}
	if _, err := cfg.Par.Run(machine.Config{
		P:        cfg.P,
		Latency:  cfg.Latency,
		Services: []dist.Distribution{cfg.Handler},
		Programs: progs,
		Hooks:    hooks,
		Seed:     cfg.Seed,
	}); err != nil {
		return ExchangeResult{}, err
	}

	res := ExchangeResult{
		RoundEnd:         make([]float64, cfg.Rounds),
		RoundTime:        make([]float64, cfg.Rounds),
		DataTime:         make([]float64, cfg.Rounds),
		SchedulePerRound: float64(cfg.P-1)*cfg.SendOverhead + cfg.Latency.Mean() + cfg.Handler.Mean(),
	}
	if cfg.Barrier {
		res.BarrierPerRound = float64(barRounds) * (cfg.SendOverhead + cfg.Latency.Mean() + cfg.Handler.Mean())
	}
	prev := 0.0
	for r := range res.RoundEnd {
		dataEnd := 0.0
		for _, p := range nodes {
			res.RoundEnd[r] = max(res.RoundEnd[r], p.roundEnd[r])
			dataEnd = max(dataEnd, p.dataEnd[r])
		}
		res.RoundTime[r] = res.RoundEnd[r] - prev
		res.DataTime[r] = dataEnd - prev
		prev = res.RoundEnd[r]
	}
	res.Total = prev
	return res, nil
}
