// Command lopc-sim runs the event-driven active-message machine
// simulator on one of the paper's workloads and prints the measured
// statistics next to the LoPC prediction.
//
// Usage:
//
//	lopc-sim -workload alltoall -P 32 -W 512 -St 40 -So 200 -C2 0 -cycles 2000
//	lopc-sim -workload workpile -P 32 -Ps 8 -W 1500 -So 131 -time 2e6
//	lopc-sim -workload multihop -hops 3 -P 16 -W 1000 -So 150
//
// Every workload runs on the discrete-event core that -sync selects
// (seq by default; multihop and multithreaded need seq or cons).
// -metrics FILE additionally writes the core's counters (committed events,
// synchronization rounds, rollbacks, rolled-back events) as
// deterministic Prometheus text exposition at exit, so sweep scripts
// and CI can scrape a batch run the same way they scrape lopc-serve.
// -trace writes a Chrome trace of an alltoall run on the seq core.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/obs"
	"repro/internal/psim"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	var (
		wl     = flag.String("workload", "alltoall", "alltoall | workpile | multihop | multithreaded")
		p      = flag.Int("P", 32, "number of processors")
		ps     = flag.Int("Ps", 8, "servers (workpile)")
		w      = flag.Float64("W", 1000, "mean work between requests / chunk size (cycles)")
		wc2    = flag.Float64("WC2", 0, "SCV of the work distribution (workpile default uses 1)")
		st     = flag.Float64("St", 40, "network latency per trip (cycles)")
		so     = flag.Float64("So", 200, "handler cost (cycles)")
		c2     = flag.Float64("C2", 0, "SCV of handler service time")
		cycles = flag.Int("cycles", 1500, "measured cycles per thread (cycle-driven workloads)")
		warmup = flag.Int("warmup", 300, "warmup cycles per thread")
		simT   = flag.Float64("time", 1.5e6, "measurement window (workpile)")
		seed   = flag.Uint64("seed", 1, "random seed")
		pp     = flag.Bool("pp", false, "protocol-processor (shared-memory) variant")
		hops   = flag.Int("hops", 2, "request hops (multihop)")
		nthr   = flag.Int("T", 2, "threads per node (multithreaded)")
		traceF = flag.String("trace", "", "write a Chrome trace (chrome://tracing JSON) of the run to this file (alltoall on the seq core only)")
		syncF  = flag.String("sync", "seq", "simulation core: seq | cons | opt (opt: alltoall and workpile only)")
		jobsF  = flag.Int("j", 1, "worker goroutines for the parallel cores")
		metF   = flag.String("metrics", "", "write the simulation core's counters as Prometheus text to this file at exit")
		ver    = version.AddFlag(flag.CommandLine)
	)
	flag.Parse()
	if *ver {
		fmt.Println(version.String("lopc-sim"))
		return
	}

	var err error
	switch {
	case *traceF != "" && *wl != "alltoall":
		err = fmt.Errorf("-trace supports only the alltoall workload, not %q", *wl)
	case *traceF != "" && *syncF != "seq":
		err = fmt.Errorf("-trace needs -sync seq: the Chrome-trace observer runs on the sequential core only, not %q", *syncF)
	default:
		metricsFile = *metF
		switch *wl {
		case "alltoall":
			err = simAllToAll(*p, *w, *st, *so, *c2, *warmup, *cycles, *seed, *pp, *traceF, *syncF, *jobsF)
		case "workpile":
			err = simWorkpile(*p, *ps, *w, *wc2, *st, *so, *c2, *simT, *seed, *syncF, *jobsF)
		case "multihop":
			err = simMultiHop(*p, *hops, *w, *st, *so, *c2, *warmup, *cycles, *seed, *syncF, *jobsF)
		case "multithreaded":
			err = simMultithreaded(*p, *nthr, *w, *st, *so, *c2, *warmup, *cycles, *seed, *syncF, *jobsF)
		default:
			err = fmt.Errorf("unknown workload %q", *wl)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lopc-sim:", err)
		os.Exit(1)
	}
}

// parFor builds the core selection for -sync along with the
// statistics block reportCore prints.
func parFor(sync string, jobs int) (*repro.SimPar, *repro.SimCoreStats) {
	cs := &repro.SimCoreStats{}
	return &repro.SimPar{Sync: sync, Jobs: jobs, Stats: cs}, cs
}

// metricsFile is the -metrics destination; empty means no dump. It is
// set once in main before any workload runs.
var metricsFile string

// reportCore prints the core's execution statistics to stderr, keeping
// stdout identical across cores, and honours -metrics by dumping the
// same counters as Prometheus text.
func reportCore(sync string, jobs int, cs *repro.SimCoreStats) error {
	fmt.Fprintf(os.Stderr, "psim core=%s j=%d: %d events, %d rounds, %d rollbacks (%d events undone)\n",
		sync, jobs, cs.Events, cs.Rounds, cs.Rollbacks, cs.RolledBack)
	if metricsFile == "" {
		return nil
	}
	f, err := os.Create(metricsFile)
	if err != nil {
		return err
	}
	if err := writeCoreMetrics(f, sync, jobs, cs); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", metricsFile)
	return nil
}

// writeCoreMetrics renders a finished run's core counters in Prometheus
// text exposition 0.0.4 through the shared obs registry — the same
// families lopc-serve registers for its live psim runs, plus a labeled
// info gauge naming the sync algorithm and a worker-count gauge. The
// registry sorts families and series, so equal runs yield equal bytes.
func writeCoreMetrics(w io.Writer, sync string, jobs int, cs *repro.SimCoreStats) error {
	reg := obs.NewRegistry()
	m := psim.NewMetrics(reg)
	m.Events.Add(int64(cs.Events))
	m.Rounds.Add(int64(cs.Rounds))
	m.Rollbacks.Add(int64(cs.Rollbacks))
	m.RolledBack.Add(int64(cs.RolledBack))
	reg.Gauge("lopc_psim_run_info", "Constant 1, labeled by the sync algorithm the run used.",
		obs.Labels{"sync": sync}).Set(1)
	reg.Gauge("lopc_psim_workers", "Worker goroutines the parallel core ran with.", nil).Set(int64(jobs))
	return reg.WritePrometheus(w)
}

func simAllToAll(p int, w, st, so, c2 float64, warmup, cycles int, seed uint64, pp bool, traceFile, sync string, jobs int) error {
	cfg := repro.SimAllToAllConfig{
		P:                 p,
		Work:              repro.Deterministic(w),
		Latency:           repro.Deterministic(st),
		Service:           repro.FromMeanSCV(so, c2),
		WarmupCycles:      warmup,
		MeasureCycles:     cycles,
		ProtocolProcessor: pp,
		Seed:              seed,
	}
	var tracer *trace.Tracer
	if traceFile != "" {
		// Cap the trace: visualization of a few thousand cycles is
		// plenty and keeps files loadable.
		tracer = &trace.Tracer{MaxEvents: 500_000}
		cfg.Observer = tracer
	}
	par, cs := parFor(sync, jobs)
	cfg.Par = par
	sim, err := repro.SimulateAllToAll(cfg)
	if err != nil {
		return err
	}
	if err := reportCore(sync, jobs, cs); err != nil {
		return err
	}
	if tracer != nil {
		f, ferr := os.Create(traceFile)
		if ferr != nil {
			return ferr
		}
		if werr := tracer.WriteJSON(f); werr != nil {
			_ = f.Close() // the write error is the one worth reporting
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events, truncated=%v)\n", traceFile, tracer.Len(), tracer.Truncated())
	}
	model, err := repro.AllToAll(repro.Params{P: p, W: w, St: st, So: so, C2: c2, ProtocolProcessor: pp})
	if err != nil {
		return err
	}
	fmt.Printf("all-to-all simulation: P=%d W=%g St=%g So=%g C2=%g pp=%v seed=%d\n",
		p, w, st, so, c2, pp, seed)
	fmt.Printf("  %-18s %12s %12s %9s\n", "", "simulated", "LoPC", "error")
	line := func(name string, sim, mod float64) {
		fmt.Printf("  %-18s %12.2f %12.2f %+8.1f%%\n", name, sim, mod, 100*(mod-sim)/sim)
	}
	line("cycle R", sim.R.Mean(), model.R)
	line("thread Rw", sim.Rw.Mean(), model.Rw)
	line("request Rq", sim.Rq.Mean(), model.Rq)
	line("reply Ry", sim.Ry.Mean(), model.Ry)
	// The simulated Qq and Uq follow from Little's law over the
	// measured cycles (see workload.AllToAllResult.Machine).
	fmt.Printf("  %-18s %12.3f %12.3f\n", "queue Qq (Rq/R)", sim.Machine.ReqQueue, model.Qq)
	fmt.Printf("  %-18s %12.3f %12.3f\n", "util Uq (So/R)", sim.Machine.UtilReq, model.Uq)
	fmt.Printf("  measured cycles: %d; contention-free estimate: %.1f\n",
		sim.R.N(), model.ContentionFree)
	return nil
}

func simWorkpile(p, ps int, w, wc2, st, so, c2, window float64, seed uint64, sync string, jobs int) error {
	chunk := repro.Exponential(w)
	//lopc:allow floateq the flag's default is the exact literal 1 (exponential); any other SCV goes through FromMeanSCV
	if wc2 != 1 && wc2 >= 0 {
		chunk = repro.FromMeanSCV(w, wc2)
	}
	par, cs := parFor(sync, jobs)
	sim, err := repro.SimulateWorkpile(repro.SimWorkpileConfig{
		P: p, Ps: ps,
		Chunk:      chunk,
		Latency:    repro.Deterministic(st),
		Service:    repro.FromMeanSCV(so, c2),
		WarmupTime: window / 10, MeasureTime: window,
		Seed: seed,
		Par:  par,
	})
	if err != nil {
		return err
	}
	if err := reportCore(sync, jobs, cs); err != nil {
		return err
	}
	params := repro.ClientServerParams{P: p, Ps: ps, W: w, St: st, So: so, C2: c2}
	model, err := repro.ClientServer(params)
	if err != nil {
		return err
	}
	fmt.Printf("work-pile simulation: P=%d Ps=%d W=%g St=%g So=%g C2=%g seed=%d\n",
		p, ps, w, st, so, c2, seed)
	fmt.Printf("  %-18s %12s %12s %9s\n", "", "simulated", "LoPC", "error")
	fmt.Printf("  %-18s %12.6f %12.6f %+8.1f%%\n", "throughput X", sim.X, model.X, 100*(model.X-sim.X)/sim.X)
	fmt.Printf("  %-18s %12.2f %12.2f %+8.1f%%\n", "client cycle R", sim.R.Mean(), model.R, 100*(model.R-sim.R.Mean())/sim.R.Mean())
	fmt.Printf("  %-18s %12.2f %12.2f %+8.1f%%\n", "server Rs", sim.Rs.Mean(), model.Rs, 100*(model.Rs-sim.Rs.Mean())/sim.Rs.Mean())
	fmt.Printf("  %-18s %12.3f %12.3f\n", "server queue Qs", sim.Qs, model.Qs)
	fmt.Printf("  %-18s %12.3f %12.3f\n", "server util Us", sim.Us, model.Us)
	opt, err := repro.OptimalServersInt(params)
	if err == nil {
		fmt.Printf("  Eq. 6.8 optimal servers: %.2f (best integral %d)\n", repro.OptimalServers(params), opt)
	}
	return nil
}

func simMultiHop(p, hops int, w, st, so, c2 float64, warmup, cycles int, seed uint64, sync string, jobs int) error {
	par, cs := parFor(sync, jobs)
	sim, err := repro.SimulateMultiHop(repro.SimMultiHopConfig{
		P: p, Hops: hops,
		Work:         repro.Deterministic(w),
		Latency:      repro.Deterministic(st),
		Service:      repro.FromMeanSCV(so, c2),
		WarmupCycles: warmup, MeasureCycles: cycles,
		Seed: seed,
		Par:  par,
	})
	if err != nil {
		return err
	}
	if err := reportCore(sync, jobs, cs); err != nil {
		return err
	}
	ws := make([]float64, p)
	for i := range ws {
		ws[i] = w
	}
	model, err := repro.General(repro.GeneralParams{
		P: p, W: ws, V: repro.MultiHopVisits(p, hops),
		St: st, So: []float64{so}, C2: c2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("multi-hop simulation: P=%d hops=%d W=%g St=%g So=%g C2=%g seed=%d\n",
		p, hops, w, st, so, c2, seed)
	fmt.Printf("  %-18s %12s %12s %9s\n", "", "simulated", "general", "error")
	fmt.Printf("  %-18s %12.2f %12.2f %+8.1f%%\n", "cycle R", sim.R.Mean(), model.R[0], 100*(model.R[0]-sim.R.Mean())/sim.R.Mean())
	fmt.Printf("  %-18s %12.2f %12.2f\n", "per-hop Rq", sim.RqPerHop.Mean(), model.Rq[0])
	fmt.Printf("  %-18s %12.2f %12.2f\n", "reply Ry", sim.Ry.Mean(), model.Ry[0])
	return nil
}

func simMultithreaded(p, nthr int, w, st, so, c2 float64, warmup, cycles int, seed uint64, sync string, jobs int) error {
	par, cs := parFor(sync, jobs)
	sim, err := repro.SimulateMultithread(repro.SimMultithreadConfig{
		P: p, T: nthr,
		Work:         repro.Deterministic(w),
		Latency:      repro.Deterministic(st),
		Service:      repro.FromMeanSCV(so, c2),
		WarmupCycles: warmup, MeasureCycles: cycles,
		Seed: seed,
		Par:  par,
	})
	if err != nil {
		return err
	}
	if err := reportCore(sync, jobs, cs); err != nil {
		return err
	}
	model, err := repro.Multithreaded(repro.Params{P: p, W: w, St: st, So: so, C2: c2}, nthr)
	if err != nil {
		return err
	}
	fmt.Printf("multithreaded simulation: P=%d T=%d W=%g St=%g So=%g C2=%g seed=%d\n",
		p, nthr, w, st, so, c2, seed)
	fmt.Printf("  %-18s %12s %12s %9s\n", "", "simulated", "LoPC", "error")
	fmt.Printf("  %-18s %12.6f %12.6f %+8.1f%%\n", "node rate XNode", sim.XNode, model.XNode, 100*(model.XNode-sim.XNode)/sim.XNode)
	fmt.Printf("  %-18s %12.2f %12.2f\n", "thread cycle R", sim.R.Mean(), model.CycleTime)
	fmt.Printf("  %-18s %12.6f\n", "conservation bound", model.Bound)
	fmt.Printf("  %-18s %12.3f %12.3f\n", "CPU thread util", sim.ThreadUtil, model.XNode*w)
	fmt.Printf("  %-18s %12.3f %12.3f\n", "CPU handler util", sim.HandlerUtil, model.HandlerUtil)
	return nil
}
