package workload

import (
	"repro/internal/machine"
	"repro/internal/psim"
)

// ParSim selects the discrete-event core that runs a workload or
// collective (internal/psim, with the machine of internal/machine;
// lock-free runs one LP of its own). A nil Par runs the
// sequential core; setting one picks the core, its job count, and its
// optional outputs. The determinism contract guarantees that for a
// fixed seed every core at every job count commits the identical event
// sequence, so the measured results are the same whether the run is
// sequential, conservative, or optimistic.
//
// Each node draws from its own random stream, and machine-level
// statistics are reset per node at that node's own warmup boundary.
// The optimistic core accepts only stateless patterns (their
// destinations are pure functions of the node's stream) and refuses
// the all-to-all extras that keep state outside the checkpointed node
// (LinkOccupancy, NIQueueCap), the Observer, and the hook-driven
// multi-hop, multithread, non-blocking, exchange and collective runs.
type ParSim struct {
	// Sync names the synchronization core: "seq", "cons", or "opt".
	// Empty means "seq".
	Sync string
	// Jobs bounds worker parallelism in the parallel cores; <= 0 means
	// GOMAXPROCS. Jobs never affects results, only wall-clock time.
	Jobs int
	// Window overrides the optimistic core's speculation window beyond
	// GVT; zero means 8x the lookahead, and a negative, NaN or infinite
	// window is an error (psim.Config.Window).
	Window float64
	// Trace, when non-nil, collects the committed event trace — the
	// byte-comparable artifact of the determinism contract.
	Trace *psim.Trace
	// Stats, when non-nil, receives the core's run statistics (events,
	// rounds, rollbacks).
	Stats *psim.RunStats
	// Metrics, when non-nil, accumulates core counters (safe to share
	// across runs; the counters are atomic).
	Metrics *psim.Metrics
}

// perRep clones the selection for one replication of a replicated run:
// the core choice carries over, the per-run outputs (Trace, Stats) do
// not — replications would race on them. Metrics survives the
// clone because its counters are atomic and accumulation across
// replications is the point.
func (p *ParSim) perRep() *ParSim {
	if p == nil {
		return nil
	}
	return &ParSim{Sync: p.Sync, Jobs: p.Jobs, Window: p.Window, Metrics: p.Metrics}
}

// apply applies the core selection to a psim configuration.
func (p *ParSim) apply(cfg *psim.Config) error {
	if p == nil {
		return nil
	}
	if p.Sync != "" {
		sync, err := psim.ParseSync(p.Sync)
		if err != nil {
			return err
		}
		cfg.Sync = sync
	}
	cfg.Jobs, cfg.Window, cfg.Trace, cfg.Metrics = p.Jobs, p.Window, p.Trace, p.Metrics
	return nil
}

// finish publishes the core statistics to the caller.
func (p *ParSim) finish(rs psim.RunStats) {
	if p != nil && p.Stats != nil {
		*p.Stats = rs
	}
}

// Run runs the machine under the selected core.
func (p *ParSim) Run(cfg machine.Config) (machine.Result, error) {
	var sel psim.Config
	if err := p.apply(&sel); err != nil {
		return machine.Result{}, err
	}
	cfg.Sync, cfg.Jobs, cfg.Window, cfg.Trace, cfg.Metrics = sel.Sync, sel.Jobs, sel.Window, sel.Trace, sel.Metrics
	res, err := machine.Run(cfg)
	if err == nil {
		p.finish(res.Run)
	}
	return res, err
}

// saveInto is the Save of a program whose state is all values: a
// struct copy into the reused snapshot, or into a new one.
func saveInto[T any](p *T, reuse any) *T {
	s, _ := reuse.(*T)
	if s == nil {
		s = new(T)
	}
	*s = *p
	return s
}
