// Command perfbench is the repository benchmark. It drives four
// closed-loop workloads through the layers' public entry points —
// serve's HTTP handler called in-process, the workload simulators, the
// psim sync cores and the runner fan-out — checks every output, and
// prints one JSON result line:
//
//	perfbench -workload serve-hot -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the run is split in two halves, untraced then traced, and
// the result carries the per-layer metrics (see README.md for the
// layer → metric → workload predictions).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
)

// setup_s is the median of setupSamples timed set-ups, run back to back
// before the measured windows; the last one becomes the measured
// instance. Each earlier one is discarded, and collected, before the
// next starts, so no two instances are ever live together.
const setupSamples = 15

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"mem_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"tail_ms", "ms"},
}

// layerNames are the layers the traced run attributes self time to.
var layerNames = []string{"check", "core", "fit", "psim", "runner", "serve", "workload"}

// serveRoutes, coreSolvers, simDrivers and psimCores name the
// per-route, per-solver, per-driver and per-core metric families.
var (
	serveRoutes = []string{"alltoall", "bounds", "fit", "general", "lock", "lockfree", "sweep", "workpile"}
	coreSolvers = []string{"alltoall", "clientserver", "general", "lock", "lockfree"}
	simDrivers  = []string{"alltoall", "lock", "lockfree", "workpile"}
	psimCores   = []string{"cons", "opt", "seq"}
)

// perLayer lists the metrics a -trace 1 run reports, on every
// workload; a layer the workload does not load reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	for _, r := range serveRoutes {
		add("serve.req_us."+r, "us")
	}
	add("serve.allocs_per_req", "count")
	add("serve.bytes_per_req", "B")
	add("serve.gc_per_kreq", "count")
	add("serve.cache_hit_ratio", "ratio")
	add("serve.queue_wait_us", "us")
	add("serve.service_us", "us")
	add("serve.overhead_us", "us")
	for _, s := range coreSolvers {
		add("core.solve_us."+s, "us")
		add("core.iters."+s, "count")
	}
	add("core.guard_trips", "count/solve")
	add("fit.solve_ms", "ms")
	add("fit.iters", "count")
	add("runner.sweep_point_us", "us")
	add("runner.busy_ratio", "ratio")
	add("calib.samples", "count")
	add("calib.refits", "count")
	add("calib.refit_failures", "count")
	for _, d := range simDrivers {
		add("workload.run_ms."+d, "ms")
		add("sim.cycles_per_s."+d, "1/s")
	}
	add("machine.ns_per_msg", "ns")
	add("machine.msgs", "count")
	for _, c := range psimCores {
		add("psim.run_ms."+c, "ms")
		add("psim.events_per_s."+c, "1/s")
		add("psim.events."+c, "count")
	}
	add("psim.events", "count")
	add("psim.cons.events_per_round", "count")
	add("psim.opt.rollback_ratio", "ratio")
	add("psim.lp_imbalance", "ratio")
	add("trace.overhead_pct", "%")
	for _, l := range layerNames {
		add("self_us_per_op."+l, "us")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}()

// spec is one named workload: a traffic mix or simulation set.
type spec struct {
	name string
	// tailQ is the quantile reported as tail_ms, taken like p50_ms
	// over every op of the run.
	tailQ float64
	// setup builds a ready-to-measure instance from the seed; it is
	// the work setup_s times.
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// window runs one timed batch of ops on m, then checks their
	// outputs outside the timed region, counting failures on m.
	// tr is nil on untraced runs.
	window(m *meter, tr *tracer) error
	// beginTraced snapshots the counters the traced half reports
	// deltas of.
	beginTraced()
	// layers reports the per-layer metrics this workload loads. base
	// is the untraced half (for allocation counts), tr the traced one.
	layers(base *meter, tr *tracer) map[string]float64
}

var workloads = []spec{
	{name: "serve-hot", tailQ: 0.99, setup: setupServeHot},
	{name: "serve-cold", tailQ: 0.98, setup: setupServeCold},
	{name: "sim-par", tailQ: 0.90, setup: setupSimPar},
	{name: "sim-sweep", tailQ: 0.99, setup: setupSimSweep},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// result is the final JSON line.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	units             []metricDef
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, sim-sweep or sim-par")
	seed := fs.Uint64("seed", 1, "root seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds after set-up")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory for the Chrome trace of a -trace 1 run (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload in %s, -seconds > 0 and -trace 0|1\n", workloadList())
		return 2
	}
	fmt.Fprintln(stderr, hostLine())
	res, tr, err := execute(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if tr != nil {
		tr.writeSummary(stderr)
		if *traceDir != "" {
			path := filepath.Join(*traceDir, fmt.Sprintf("trace-%s-%d.json", wl.name, *seed))
			if err := tr.chrome.WriteFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "perfbench: chrome trace written to %s\n", path)
		}
	}
	if _, err := io.WriteString(stdout, res.json()+"\n"); err != nil {
		return 1
	}
	return 0
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute sets the workload up, then measures it for d, describing
// failed checks on diag. An untraced run times setupSamples set-ups
// first. A traced run sets up once, measures the first half untraced
// (the baseline for trace.overhead_pct and the allocation counts) and
// the second half traced.
func execute(wl spec, seed uint64, d time.Duration, traced bool, diag io.Writer) (result, *tracer, error) {
	clk := clock.System
	n := setupSamples
	if traced {
		n = 1
	}
	var (
		inst    instance
		samples []float64
	)
	speed := newSpeedRef(clk)
	for range n {
		inst = nil
		runtime.GC()
		t0 := clk.Now()
		var err error
		if inst, err = wl.setup(seed); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		samples = append(samples, clk.Now().Sub(t0).Seconds())
		speed.sample(1)
	}

	start := clk.Now()
	if !traced {
		m := newMeter(clk, false, wl.tailQ)
		m.diag = diag
		m.speed = speed
		if err := measure(inst, m, nil, start.Add(d)); err != nil {
			return result{}, nil, err
		}
		raw := endToEndMetrics(m, median(samples), 1)
		fmt.Fprintf(diag, "perfbench: kernel median %.4f ms over %d samples, time factor %.4f; unscaled:",
			median(speed.samples), len(speed.samples), speed.factor())
		for _, def := range endToEnd {
			fmt.Fprintf(diag, " %s=%.6g", def.name, raw[def.name])
		}
		fmt.Fprintln(diag)
		return result{
			attempted: m.ops,
			failed:    m.failed,
			metrics:   endToEndMetrics(m, median(samples), speed.factor()),
			units:     endToEnd,
		}, nil, nil
	}

	base := newMeter(clk, true, wl.tailQ)
	base.diag = diag
	if err := measure(inst, base, nil, start.Add(d/2)); err != nil {
		return result{}, nil, err
	}
	tr := newTracer(clk)
	inst.beginTraced()
	tm := newMeter(clk, false, wl.tailQ)
	tm.diag = diag
	if err := measure(inst, tm, tr, start.Add(d)); err != nil {
		return result{}, nil, err
	}
	metrics := inst.layers(base, tr)
	for _, l := range layerNames {
		metrics["self_us_per_op."+l] = ratio(tr.layerSelf(l).Seconds()*1e6, float64(tm.ops))
	}
	if b := base.opsPerSec(); b > 0 {
		metrics["trace.overhead_pct"] = (b - tm.opsPerSec()) / b * 100
	}
	return result{
		attempted: base.ops + tm.ops,
		failed:    base.failed + tm.failed,
		metrics:   metrics,
		units:     perLayer,
	}, tr, nil
}

// measure runs windows until the deadline, and at least one.
func measure(inst instance, m *meter, tr *tracer, deadline time.Time) error {
	for {
		if err := inst.window(m, tr); err != nil {
			return err
		}
		if !m.clk.Now().Before(deadline) {
			return nil
		}
	}
}

// endToEndMetrics computes the -trace 0 metrics from the measured
// windows, scaling every time by f and every rate by 1/f.
func endToEndMetrics(m *meter, setup, f float64) map[string]float64 {
	p50, tail := m.percentiles()
	return map[string]float64{
		"cpu_ms_per_op": m.cpuPerOp().Seconds() * 1e3 * f,
		"ops_per_s":     m.opsPerSec() / f,
		"mem_mb":        m.heldMB(),
		"p50_ms":        p50 * f,
		"setup_s":       setup * f,
		"tail_ms":       tail * f,
	}
}

// json renders the result line with metrics in sorted order and every
// value at full precision. A metric the workload did not report prints
// as 0; a non-finite value marks the result incorrect.
func (r result) json() string {
	var b strings.Builder
	correct := r.failed == 0 && r.attempted > 0
	var parts []string
	for _, def := range r.units {
		v := r.metrics[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			v = 0
		}
		parts = append(parts, fmt.Sprintf("%q: {\"value\": %s, \"unit\": %q}", def.name, strconv.FormatFloat(v, 'g', -1, 64), def.unit))
	}
	fmt.Fprintf(&b, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}",
		correct, r.attempted, r.failed, strings.Join(parts, ", "))
	return b.String()
}

// hostLine describes the machine for the record.
func hostLine() string {
	return fmt.Sprintf("perfbench: host nproc=%d GOMAXPROCS=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
