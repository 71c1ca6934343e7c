// Package am builds collective operations — broadcast, reduction, and
// barrier synchronization — from active messages on the simulated
// machine, and provides their LogP-style schedules and cost formulas.
//
// The package serves two purposes in the reproduction. First, it
// validates the simulator against LogP theory: executing the optimal
// LogP broadcast tree on the machine with deterministic costs produces
// the analytical informed times exactly. Second, it grounds the paper's
// introduction: the original LogP study noted that all-to-all patterns
// need barrier resynchronization to stay contention-free, and that few
// machines have cheap barriers — these are the barriers in question,
// priced in active messages.
//
// The machine model separates the sender-side injection overhead o
// (time the thread spends composing and injecting a message, spent as
// local compute) from the receiver-side handler cost So (the paper
// folds both into LogP's o; here they may differ).
package am

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes the machine a collective runs on.
type Config struct {
	// P is the number of nodes.
	P int
	// Latency is the network trip time distribution (mean St / LogP L).
	Latency dist.Distribution
	// Handler is the receive-handler cost distribution (So).
	Handler dist.Distribution
	// SendOverhead is the sender-side cost per injection (LogP's o on
	// the sending side), spent as thread compute time.
	SendOverhead float64
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core (see workload.ParSim).
	Par *workload.ParSim
}

func (c Config) validate() error {
	switch {
	case c.P < 1:
		return fmt.Errorf("am: P = %d", c.P)
	case c.Latency == nil || c.Handler == nil:
		return fmt.Errorf("am: nil distribution in config")
	// The negated comparison rejects NaN too: NaN >= 0 is false.
	case !(c.SendOverhead >= 0) || math.IsInf(c.SendOverhead, 0):
		return fmt.Errorf("am: invalid send overhead %v", c.SendOverhead)
	}
	return nil
}

// --- Broadcast schedule ---

// sender is a node in the greedy broadcast schedule with the arrival
// time of its next outgoing message.
type sender struct {
	nextArrive float64
	index      int
}

type senderHeap []sender

func (h senderHeap) Len() int           { return len(h) }
func (h senderHeap) Less(i, j int) bool { return h[i].nextArrive < h[j].nextArrive }
func (h senderHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *senderHeap) Push(x any)        { *h = append(*h, x.(sender)) }
func (h *senderHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Schedule computes the greedy optimal single-item broadcast schedule
// for a machine with separate send overhead o, wire latency l, and
// receive-handler cost h: the finish time, each node's informed time,
// and the tree as a parent vector (parent[0] = -1). With o = h it
// coincides with the LogP optimal broadcast (logp.BroadcastTree).
func Schedule(p int, o, l, h float64) (finish float64, informedAt []float64, parent []int) {
	informedAt = make([]float64, p)
	parent = make([]int, p)
	parent[0] = -1
	if p <= 1 {
		return 0, informedAt, parent
	}
	// A sender ready at t lands messages at t+o+l, t+2o+l, ... (each
	// injection occupies the thread for o); the receiver is informed a
	// handler time h after each landing.
	hp := &senderHeap{}
	heap.Push(hp, sender{nextArrive: o + l, index: 0})
	for i := 1; i < p; i++ {
		src := heap.Pop(hp).(sender)
		informed := src.nextArrive + h
		informedAt[i] = informed
		parent[i] = src.index
		if informed > finish {
			finish = informed
		}
		heap.Push(hp, sender{nextArrive: src.nextArrive + o, index: src.index})
		heap.Push(hp, sender{nextArrive: informed + o + l, index: i})
	}
	return finish, informedAt, parent
}

// --- Broadcast execution ---

// BroadcastResult reports a simulated broadcast.
type BroadcastResult struct {
	// Finish is the time the last node became informed.
	Finish float64
	// InformedAt[i] is when node i's receive handler completed (0 for
	// the root).
	InformedAt []float64
	// Predicted is the Schedule's analytical finish time (exact when
	// all costs are deterministic).
	Predicted float64
}

// bcastProgram drives one node of the broadcast tree: a non-root
// blocks until its hook sees the message that informs it, then every
// node alternates Compute(sendOverhead) and Send for each child in
// schedule order.
type bcastProgram struct {
	machine.NoSnapshot
	cfg        *Config
	children   []int
	blocked    bool    // still waiting to be informed
	idx        int     // next child
	paid       bool    // overhead for child idx already spent
	informedAt float64 // when the informing handler completed
}

// Next implements machine.Program.
func (p *bcastProgram) Next(*machine.NodeView) machine.Action {
	if p.blocked {
		p.blocked = false
		return machine.Block()
	}
	if p.idx >= len(p.children) {
		return machine.Halt()
	}
	if o := p.cfg.SendOverhead; o > 0 && !p.paid {
		p.paid = true
		return machine.Compute(o)
	}
	dst := p.children[p.idx]
	p.idx++
	p.paid = false
	return machine.Send(dst, machine.Message{Kind: machine.KindRequest})
}

// Done implements machine.Hook.
func (p *bcastProgram) Done(v *machine.NodeView, m machine.Message) {
	p.informedAt = m.Done
	v.Wake(0)
}

// run executes one collective with a program and hook per node.
func run[T interface {
	machine.Program
	machine.Hook
}](cfg Config, nodes []T) error {
	progs, hooks := make([]machine.Program, cfg.P), make([]machine.Hook, cfg.P)
	for i, n := range nodes {
		progs[i], hooks[i] = n, n
	}
	_, err := cfg.Par.Run(machine.Config{
		P:        cfg.P,
		Latency:  cfg.Latency,
		Services: []dist.Distribution{cfg.Handler},
		Programs: progs,
		Hooks:    hooks,
		Seed:     cfg.Seed,
	})
	return err
}

// Broadcast executes the optimal broadcast tree on the machine and
// returns measured and predicted times.
func Broadcast(cfg Config) (BroadcastResult, error) {
	if err := cfg.validate(); err != nil {
		return BroadcastResult{}, err
	}
	predicted, _, parent := Schedule(cfg.P, cfg.SendOverhead, cfg.Latency.Mean(), cfg.Handler.Mean())
	nodes := make([]*bcastProgram, cfg.P)
	for i := range nodes {
		nodes[i] = &bcastProgram{cfg: &cfg, blocked: i != 0}
	}
	for i := 1; i < cfg.P; i++ {
		nodes[parent[i]].children = append(nodes[parent[i]].children, i)
	}
	if err := run(cfg, nodes); err != nil {
		return BroadcastResult{}, err
	}
	res := BroadcastResult{InformedAt: make([]float64, cfg.P), Predicted: predicted}
	for i, p := range nodes {
		res.InformedAt[i] = p.informedAt
		res.Finish = max(res.Finish, p.informedAt)
	}
	return res, nil
}

// --- Reduction ---

// ReduceResult reports a simulated reduction.
type ReduceResult struct {
	// Value is the combined value delivered at the root.
	Value float64
	// Finish is the completion time (root's final combine).
	Finish float64
	// Predicted is the binomial-tree analytical time for deterministic
	// symmetric costs: ceil(log2 P) · (o + l + h).
	Predicted float64
}

// reduceRounds returns node self's receive rounds (ascending) and its
// send round (−1 for the root) in a binomial-tree reduction over p
// nodes: in round k, nodes whose low k+1 bits equal 2^k send their
// partial sum to the node 2^k below them.
func reduceRounds(self, p int) (recv []int, send int) {
	for k := 0; 1<<k < p; k++ {
		bit := 1 << k
		low := self & (bit<<1 - 1)
		switch low {
		case 0:
			if self+bit < p {
				recv = append(recv, k)
			}
		case bit:
			return recv, k
		}
	}
	return recv, -1
}

// reduceProgram drives one node: it waits for each expected receive in
// round order, then (unless root) sends its combined value up the
// tree. Its hook adds each incoming partial sum, whose tag carries its
// round.
type reduceProgram struct {
	machine.NoSnapshot
	cfg     *Config
	rounds  []int
	sendRnd int // -1 for the root
	stage   int
	paid    bool
	waiting int // round blocked on, -1 if none
	value   float64
	got     []bool // got[k]: the round-k partial sum arrived
	finish  float64
}

// Next implements machine.Program.
func (p *reduceProgram) Next(v *machine.NodeView) machine.Action {
	for p.stage < len(p.rounds) {
		k := p.rounds[p.stage]
		if !p.got[k] {
			p.waiting = k
			return machine.Block()
		}
		p.stage++
	}
	p.waiting = -1
	if p.sendRnd < 0 {
		p.finish = v.Now()
		return machine.Halt()
	}
	if o := p.cfg.SendOverhead; o > 0 && !p.paid {
		p.paid = true
		return machine.Compute(o)
	}
	round := p.sendRnd
	p.sendRnd = -1 // send exactly once, then halt on the next step
	return machine.Send(v.Self()-1<<round, machine.Message{Kind: machine.KindRequest, Tag: uint64(round), Val: p.value})
}

// Done implements machine.Hook.
func (p *reduceProgram) Done(v *machine.NodeView, m machine.Message) {
	round := int(m.Tag)
	p.value += m.Val
	p.got[round] = true
	if p.waiting == round {
		p.waiting = -1
		v.Wake(0)
	}
}

// Reduce executes a binomial-tree sum reduction of values (one per
// node) and returns the combined value and timing.
func Reduce(cfg Config, values []float64) (ReduceResult, error) {
	if err := cfg.validate(); err != nil {
		return ReduceResult{}, err
	}
	if len(values) != cfg.P {
		return ReduceResult{}, fmt.Errorf("am: %d values for %d nodes", len(values), cfg.P)
	}
	rounds := ceilLog2(cfg.P)
	nodes := make([]*reduceProgram, cfg.P)
	for i := range nodes {
		recv, send := reduceRounds(i, cfg.P)
		nodes[i] = &reduceProgram{cfg: &cfg, rounds: recv, sendRnd: send, waiting: -1,
			value: values[i], got: make([]bool, rounds+1)}
	}
	if err := run(cfg, nodes); err != nil {
		return ReduceResult{}, err
	}
	return ReduceResult{
		Value:     nodes[0].value,
		Finish:    nodes[0].finish,
		Predicted: float64(rounds) * (cfg.SendOverhead + cfg.Latency.Mean() + cfg.Handler.Mean()),
	}, nil
}

func ceilLog2(p int) int {
	r := 0
	for 1<<r < p {
		r++
	}
	return r
}

// --- Barrier ---

// BarrierResult reports simulated dissemination barriers.
type BarrierResult struct {
	// PerBarrier is the mean cost of one barrier in steady state (total
	// time over back-to-back barriers).
	PerBarrier float64
	// Rounds is ceil(log2 P).
	Rounds int
	// Predicted is the deterministic-cost model: Rounds·(o + l + h).
	Predicted float64
	// Tally holds per-barrier completion intervals for variability
	// analysis.
	Tally stats.Tally
}

// barrierProgram drives one node through iters dissemination barriers:
// in round k it sends to (i+2^k) mod P and waits for the round-k
// message of the current barrier from (i−2^k) mod P. Messages from a
// node that has raced ahead into the next barrier are accounted for by
// counting per-round receptions rather than flags. Each node records
// when it left each barrier; a barrier completes when its last node
// leaves.
type barrierProgram struct {
	machine.NoSnapshot
	cfg       *Config
	rounds    int
	barrier   int
	round     int
	paid      bool
	sent      bool
	waiting   int   // round blocked on, -1 if none
	recvCount []int // messages received per round, over all barriers
	left      []float64
}

// Next implements machine.Program.
func (p *barrierProgram) Next(v *machine.NodeView) machine.Action {
	for {
		if p.round == p.rounds {
			p.left[p.barrier] = v.Now()
			p.barrier++
			p.round = 0
			if p.barrier == len(p.left) {
				return machine.Halt()
			}
			continue
		}
		if !p.sent {
			if o := p.cfg.SendOverhead; o > 0 && !p.paid {
				p.paid = true
				return machine.Compute(o)
			}
			p.sent = true
			p.paid = false
			dst := (v.Self() + 1<<p.round) % p.cfg.P
			return machine.Send(dst, machine.Message{Kind: machine.KindRequest, Tag: uint64(p.round)})
		}
		// Sent; wait for this barrier's message of this round.
		if p.recvCount[p.round] <= p.barrier {
			p.waiting = p.round
			return machine.Block()
		}
		p.waiting = -1
		p.round++
		p.sent = false
	}
}

// Done implements machine.Hook.
func (p *barrierProgram) Done(v *machine.NodeView, m machine.Message) {
	round := int(m.Tag)
	p.recvCount[round]++
	if p.waiting == round && p.recvCount[round] > p.barrier {
		p.waiting = -1
		v.Wake(0)
	}
}

// Barrier runs iters back-to-back dissemination barriers and returns
// cost statistics.
func Barrier(cfg Config, iters int) (BarrierResult, error) {
	if err := cfg.validate(); err != nil {
		return BarrierResult{}, err
	}
	if iters < 1 {
		return BarrierResult{}, fmt.Errorf("am: iters = %d", iters)
	}
	rounds := ceilLog2(cfg.P)
	nodes := make([]*barrierProgram, cfg.P)
	for i := range nodes {
		nodes[i] = &barrierProgram{cfg: &cfg, rounds: rounds, waiting: -1,
			recvCount: make([]int, rounds+1), left: make([]float64, iters)}
	}
	if err := run(cfg, nodes); err != nil {
		return BarrierResult{}, err
	}
	res := BarrierResult{
		Rounds:    rounds,
		Predicted: float64(rounds) * (cfg.SendOverhead + cfg.Latency.Mean() + cfg.Handler.Mean()),
	}
	prev := 0.0
	for b := 0; b < iters; b++ {
		done := 0.0
		for _, p := range nodes {
			done = max(done, p.left[b])
		}
		res.Tally.Add(done - prev)
		prev = done
	}
	res.PerBarrier = res.Tally.Mean()
	return res, nil
}

// AllReduceResult reports a simulated allreduce.
type AllReduceResult struct {
	// Values holds the combined value delivered at every node.
	Values []float64
	// Finish is the time the last node received the result.
	Finish float64
	// Predicted is the reduce + broadcast composition estimate for
	// deterministic symmetric costs.
	Predicted float64
}

// AllReduce combines values at the root by a binomial-tree reduction
// and redistributes the result along the optimal broadcast tree — the
// classic reduce-then-broadcast allreduce. The phases run back to back
// as two machine runs (the broadcast seeded with Seed+1), so the finish
// time is their sum; with cfg.Par set, its trace and statistics end up
// describing the broadcast phase.
func AllReduce(cfg Config, values []float64) (AllReduceResult, error) {
	if err := cfg.validate(); err != nil {
		return AllReduceResult{}, err
	}
	if len(values) != cfg.P {
		return AllReduceResult{}, fmt.Errorf("am: %d values for %d nodes", len(values), cfg.P)
	}
	// Phase 1: reduce on its own machine instance.
	red, err := Reduce(cfg, values)
	if err != nil {
		return AllReduceResult{}, err
	}
	// Phase 2: broadcast the combined value. Timing composes additively
	// because the root holds the value and every other node idles at
	// the phase boundary.
	bcfg := cfg
	bcfg.Seed = cfg.Seed + 1
	bres, err := Broadcast(bcfg)
	if err != nil {
		return AllReduceResult{}, err
	}
	out := make([]float64, cfg.P)
	for i := range out {
		out[i] = red.Value
	}
	return AllReduceResult{
		Values:    out,
		Finish:    red.Finish + bres.Finish,
		Predicted: red.Predicted + bres.Predicted,
	}, nil
}
