package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// WorkpileConfig describes a client-server work-pile run (Chapter 6):
// the first P−Ps nodes are clients that process chunks of work and
// request the next chunk from a uniformly random server; the last Ps
// nodes are servers whose threads are idle — they only run request
// handlers.
type WorkpileConfig struct {
	// P is the total node count; the last Ps nodes act as servers.
	P, Ps int
	// Chunk is the distribution of work per chunk at a client (the
	// paper motivates work-piles by highly variable chunk sizes, so an
	// exponential with mean W is the natural choice).
	Chunk dist.Distribution
	// PerClientChunk optionally overrides Chunk per client (length
	// P−Ps): heterogeneous client classes for validating the general
	// model and multiclass MVA. Nil entries fall back to Chunk.
	PerClientChunk []dist.Distribution
	// Latency is the per-trip network latency distribution.
	Latency dist.Distribution
	// Service is the handler service distribution (request handler at
	// the server handing out a chunk descriptor; reply handler at the
	// client).
	Service dist.Distribution
	// WarmupTime and MeasureTime bound the run: statistics cover
	// [WarmupTime, WarmupTime+MeasureTime] of simulated cycles. The
	// work-pile is measured over a time window (not a cycle count)
	// because throughput is the metric of interest.
	WarmupTime, MeasureTime float64
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c WorkpileConfig) validate() error {
	switch {
	case c.P < 2 || c.Ps < 1 || c.Ps >= c.P:
		return fmt.Errorf("workload: need 1 <= Ps < P, got Ps=%d P=%d", c.Ps, c.P)
	case c.Chunk == nil || c.Latency == nil || c.Service == nil:
		return fmt.Errorf("workload: nil distribution in config")
	case c.PerClientChunk != nil && len(c.PerClientChunk) != c.P-c.Ps:
		return fmt.Errorf("workload: PerClientChunk has %d entries for %d clients", len(c.PerClientChunk), c.P-c.Ps)
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(c.WarmupTime >= 0) || !(c.MeasureTime > 0) || math.IsInf(c.WarmupTime, 0) || math.IsInf(c.MeasureTime, 0):
		return fmt.Errorf("workload: invalid window warmup=%v measure=%v", c.WarmupTime, c.MeasureTime)
	}
	return nil
}

// WorkpileResult holds the measured work-pile statistics.
type WorkpileResult struct {
	// X is the system throughput: chunks completed per cycle during the
	// measurement window, across the whole machine.
	X float64
	// R is the client compute/request cycle time.
	R stats.Tally
	// Rs is the response time of chunk requests at the servers
	// (queueing + service) — the model's Rs.
	Rs stats.Tally
	// Qs is the time-averaged number of requests present per server; at
	// the optimal allocation the model says this is 1.
	Qs float64
	// Us is the time-averaged utilization per server.
	Us float64
	// Chunks is the number of chunks completed in the window.
	Chunks int64
	// ChunksByClient counts completed chunks per client node (indices
	// 0..Pc−1), for per-class throughput with heterogeneous clients.
	ChunksByClient []int64
}

// wpRun is the shared configuration of a work-pile or lock run: pc
// clients, then ps servers; measurements cover replies completed in
// [warmup, end].
type wpRun struct {
	pc, ps      int
	warmup, end float64
}

// inWin reports whether a reply completed at t is measured.
func (r *wpRun) inWin(t float64) bool { return t >= r.warmup && t <= r.end }

// wpProg drives one client: compute a chunk, then request the next from
// a uniformly random server.
type wpProg struct {
	run    *wpRun
	chunk  dist.Distribution
	phase  int
	ready  float64
	r, rs  stats.Tally
	chunks int64
}

// Next implements machine.Program.
func (p *wpProg) Next(v *machine.NodeView) machine.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		return machine.Request(p.run.pc+v.Rand().Intn(p.run.ps), 0, 0)
	case phaseUnblocked:
		c := v.Cycle()
		if p.run.inWin(c.RepDone) {
			p.r.Add(c.RepDone - p.ready)
			p.rs.Add(c.ReqDone - c.ReqArrived)
			p.chunks++
		}
		p.ready = c.RepDone
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return machine.Compute(p.chunk.Sample(v.Rand()))
}

// Save and Restore implement machine.Program.
func (p *wpProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *wpProg) Restore(snapshot any) { *p = *snapshot.(*wpProg) }

// RunWorkpile executes one work-pile simulation.
func RunWorkpile(cfg WorkpileConfig) (WorkpileResult, error) {
	if err := cfg.validate(); err != nil {
		return WorkpileResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	pc := cfg.P - cfg.Ps
	run := &wpRun{pc: pc, ps: cfg.Ps, warmup: cfg.WarmupTime, end: end}
	progs := make([]machine.Program, cfg.P)
	clients := make([]*wpProg, pc)
	for i := range clients {
		chunk := cfg.Chunk
		if cfg.PerClientChunk != nil && cfg.PerClientChunk[i] != nil {
			chunk = cfg.PerClientChunk[i]
		}
		clients[i] = &wpProg{run: run, chunk: chunk}
		progs[i] = clients[i]
	}
	sres, err := cfg.Par.Run(machine.Config{
		P:            cfg.P,
		Latency:      cfg.Latency,
		Services:     []dist.Distribution{cfg.Service},
		Programs:     progs,
		Seed:         cfg.Seed,
		ResetStatsAt: cfg.WarmupTime,
		Until:        end,
	})
	if err != nil {
		return WorkpileResult{}, err
	}
	res := WorkpileResult{ChunksByClient: make([]int64, pc)}
	for i, p := range clients {
		res.R.Merge(&p.r)
		res.Rs.Merge(&p.rs)
		res.Chunks += p.chunks
		res.ChunksByClient[i] = p.chunks
	}
	res.X = float64(res.Chunks) / cfg.MeasureTime
	// Server-side time averages over the measurement window.
	for s := pc; s < cfg.P; s++ {
		ns := &sres.Nodes[s]
		res.Qs += ns.ReqQueue
		res.Us += ns.UtilReq
	}
	res.Qs /= float64(cfg.Ps)
	res.Us /= float64(cfg.Ps)
	return res, nil
}
