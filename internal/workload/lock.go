package workload

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/stats"
)

// LockConfig describes a coarse-grained lock run on the simulated
// machine: Threads client nodes loop {compute Work; acquire the lock;
// critical section; release}, and one extra node plays the lock. The
// mapping onto the LoPC machine is the work-pile with Ps = 1: the
// request handler at the lock node is the critical section (requests
// serialize FIFO, exactly like waiters on a queue lock), the request
// trip is the acquire handoff, and the reply trip — whose handler does
// nothing — is the grant handoff back to the waiter, so a full cycle
// is W + 2St + Rs with Rs the lock response (wait + critical section).
type LockConfig struct {
	// Threads is the number of contending threads (client nodes).
	Threads int
	// Work is the non-critical work distribution (mean W).
	Work dist.Distribution
	// Handoff is the one-way lock handoff latency distribution
	// (mean St); a cycle pays it twice.
	Handoff dist.Distribution
	// Critical is the critical-section distribution (mean So, SCV C²).
	Critical dist.Distribution
	// WarmupTime and MeasureTime bound the measurement window, in
	// simulated cycles; throughput is the metric, so the window is
	// time-based like the work-pile's.
	WarmupTime, MeasureTime float64
	// Seed roots the run's random streams.
	Seed uint64
	// Par selects the discrete-event core; nil runs the sequential
	// core. See ParSim.
	Par *ParSim
}

func (c LockConfig) validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("workload: lock needs Threads >= 1, got %d", c.Threads)
	case c.Work == nil || c.Handoff == nil || c.Critical == nil:
		return fmt.Errorf("workload: nil distribution in config")
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(c.WarmupTime >= 0) || !(c.MeasureTime > 0) || math.IsInf(c.WarmupTime, 0) || math.IsInf(c.MeasureTime, 0):
		return fmt.Errorf("workload: invalid window warmup=%v measure=%v", c.WarmupTime, c.MeasureTime)
	}
	return nil
}

// LockSimResult holds the measured lock statistics, aligned with
// core.LockResult.
type LockSimResult struct {
	// X is the system throughput: acquisitions per cycle across all
	// threads in the measurement window.
	X float64
	// R is the full thread cycle time (release to release).
	R stats.Tally
	// Rs is the lock response: from the acquire request reaching the
	// lock to the critical section completing (wait + service).
	Rs stats.Tally
	// Q is the time-averaged number of threads at the lock.
	Q float64
	// U is the time-averaged lock utilization.
	U float64
	// Acquisitions counts completed critical sections in the window.
	Acquisitions int64
}

// lockProg drives one thread: the work-pile client with a fixed
// destination (the lock node) and a free reply handler.
type lockProg struct {
	run   *wpRun // the lock node is the single "server" at index pc
	work  dist.Distribution
	phase int
	ready float64
	r, rs stats.Tally
	acqs  int64
}

// Next implements machine.Program.
func (p *lockProg) Next(v *machine.NodeView) machine.Action {
	switch p.phase {
	case phaseSend:
		p.phase = phaseUnblocked
		return machine.Request(p.run.pc, 0, 1) // service 0: critical section; reply 1: free grant
	case phaseUnblocked:
		c := v.Cycle()
		if p.run.inWin(c.RepDone) {
			p.r.Add(c.RepDone - p.ready)
			p.rs.Add(c.ReqDone - c.ReqArrived)
			p.acqs++
		}
		p.ready = c.RepDone
	default: // first call
		p.ready = v.Now()
	}
	p.phase = phaseSend
	return machine.Compute(p.work.Sample(v.Rand()))
}

// Save and Restore implement machine.Program.
func (p *lockProg) Save(reuse any) any   { return saveInto(p, reuse) }
func (p *lockProg) Restore(snapshot any) { *p = *snapshot.(*lockProg) }

// RunLock executes one coarse-grained lock simulation.
func RunLock(cfg LockConfig) (LockSimResult, error) {
	if err := cfg.validate(); err != nil {
		return LockSimResult{}, err
	}
	end := cfg.WarmupTime + cfg.MeasureTime
	run := &wpRun{pc: cfg.Threads, ps: 1, warmup: cfg.WarmupTime, end: end}
	progs := make([]machine.Program, cfg.Threads+1)
	threads := make([]*lockProg, cfg.Threads)
	for i := range threads {
		threads[i] = &lockProg{run: run, work: cfg.Work}
		progs[i] = threads[i]
	}
	sres, err := cfg.Par.Run(machine.Config{
		P:            cfg.Threads + 1,
		Latency:      cfg.Handoff,
		Services:     []dist.Distribution{cfg.Critical, dist.NewDeterministic(0)},
		Programs:     progs,
		Seed:         cfg.Seed,
		ResetStatsAt: cfg.WarmupTime,
		Until:        end,
	})
	if err != nil {
		return LockSimResult{}, err
	}
	var res LockSimResult
	for _, p := range threads {
		res.R.Merge(&p.r)
		res.Rs.Merge(&p.rs)
		res.Acquisitions += p.acqs
	}
	res.X = float64(res.Acquisitions) / cfg.MeasureTime
	lock := &sres.Nodes[cfg.Threads]
	res.Q = lock.ReqQueue
	res.U = lock.UtilReq
	return res, nil
}
