package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sim-sweep: the lopc-sweep / lopc-experiments shape on the default
// engine (Par == nil), one op per (point, seed), fanned out through
// runner.Map at simJobs.

const (
	simJobs       = 2
	seedsPerPoint = 3
)

// Agreement bands, as lopc-validate enforces them: all-to-all within 8%
// at C² = 0, the work-pile within 5%, the lock within 10% and lock-free
// within 15% (throughput and conflict fraction). Every all-to-all point,
// C² = 1 included, must also keep the model pessimistic (never more than
// 2% below the simulation) and the simulated R inside the Eq. 5.12
// bracket [W+2St+2So, W+2St+β(C²)So]. lopc-validate states no band at
// C² = 1, and the model runs 8–10% pessimistic there at W ≤ 64, so those
// points are held to the bracket and pessimism alone.
const (
	bandAllToAll = 0.08
	bandWorkpile = 0.05
	bandLock     = 0.10
	bandLockFree = 0.15
	maxOptimism  = 0.02
)

// simPoint is one sweep point: a driver run and the model it is checked
// against.
type simPoint struct {
	driver string
	label  string
	run    func(seed uint64) (simOut, error)
	// check compares the mean over a point's seeds with the model.
	check func(mean simOut) error
}

// within reports whether the model value is within band (relative) of
// the simulated one.
func within(what string, model, sim, band float64) error {
	if rel := (model - sim) / sim; math.Abs(rel) > band {
		return fmt.Errorf("model %s %.6g vs sim %.6g (%+.2f%%, band %g%%)", what, model, sim, rel*100, band*100)
	}
	return nil
}

// simOut is what one simulation run measured.
type simOut struct {
	value    float64 // all-to-all: mean R; others: throughput X
	conflict float64 // lock-free conflict fraction
	cycles   int64   // measured request cycles
	msgs     int64   // all-to-all: messages handled in the measured window
}

type simSweepInst struct {
	points []simPoint
	root   uint64
	pass   int
	clk    clock.Clock

	// traced-half state, per driver.
	cycles   map[string]int64
	hostTime map[string]time.Duration
	a2aMsgs  int64
	busy     time.Duration
	wall     time.Duration
	// pass0Msgs is the all-to-all message count of pass 0, an exact
	// count for a given seed.
	pass0Msgs int64
}

func allToAllPoint(w, c2 float64) (simPoint, error) {
	p := core.Params{P: 32, W: w, St: 40, So: 200, C2: c2}
	model, err := core.AllToAll(p)
	if err != nil {
		return simPoint{}, err
	}
	beta := core.UpperBoundBeta(c2)
	return simPoint{
		driver: "alltoall",
		label:  fmt.Sprintf("alltoall W=%g C2=%g", w, c2),
		run: func(seed uint64) (simOut, error) {
			r, err := workload.RunAllToAll(workload.AllToAllConfig{
				P: p.P, Work: dist.NewDeterministic(w), Latency: dist.NewDeterministic(p.St),
				Service: dist.FromMeanSCV(p.So, c2), WarmupCycles: 100, MeasureCycles: 200, Seed: seed,
			})
			return simOut{value: r.R.Mean(), cycles: r.R.N(), msgs: r.Machine.ReqArrivals + r.Machine.RepArrivals}, err
		},
		check: func(m simOut) error {
			rel := (model.R - m.value) / m.value
			lo, hi := p.ContentionFree(), p.W+2*p.St+beta*p.So
			if rel < -maxOptimism || m.value < lo || m.value > hi || (c2 <= 0 && math.Abs(rel) > bandAllToAll) {
				return fmt.Errorf("model R %.2f vs sim R %.2f (%+.2f%%), Eq. 5.12 bracket [%.1f, %.1f]",
					model.R, m.value, rel*100, lo, hi)
			}
			return nil
		},
	}, nil
}

func workpilePoint(ps int) (simPoint, error) {
	model, err := core.ClientServer(core.ClientServerParams{P: 32, Ps: ps, W: 1500, St: 40, So: 131})
	if err != nil {
		return simPoint{}, err
	}
	return simPoint{
		driver: "workpile",
		label:  fmt.Sprintf("workpile Ps=%d", ps),
		run: func(seed uint64) (simOut, error) {
			r, err := workload.RunWorkpile(workload.WorkpileConfig{
				P: 32, Ps: ps, Chunk: dist.NewExponential(1500), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(131), WarmupTime: 20_000, MeasureTime: 200_000, Seed: seed,
			})
			return simOut{value: r.X, cycles: r.Chunks}, err
		},
		check: func(m simOut) error { return within("X", model.X, m.value, bandWorkpile) },
	}, nil
}

func lockPoint(n int) (simPoint, error) {
	model, err := core.Lock(core.LockParams{Threads: n, W: 800, St: 20, So: 100, C2: 1})
	if err != nil {
		return simPoint{}, err
	}
	window := sampleWindow(n)
	return simPoint{
		driver: "lock",
		label:  fmt.Sprintf("lock threads=%d", n),
		run: func(seed uint64) (simOut, error) {
			r, err := workload.RunLock(workload.LockConfig{
				Threads: n, Work: dist.NewExponential(800), Handoff: dist.NewDeterministic(20),
				Critical: dist.NewExponential(100), WarmupTime: 10_000, MeasureTime: window, Seed: seed,
			})
			return simOut{value: r.X, cycles: r.Acquisitions}, err
		},
		check: func(m simOut) error { return within("X", model.X, m.value, bandLock) },
	}, nil
}

func lockFreePoint(n int) (simPoint, error) {
	model, err := core.LockFree(core.LockFreeParams{Threads: n, W: 400, St: 5, So: 60, C2: 1})
	if err != nil {
		return simPoint{}, err
	}
	window := sampleWindow(n)
	return simPoint{
		driver: "lockfree",
		label:  fmt.Sprintf("lockfree threads=%d", n),
		run: func(seed uint64) (simOut, error) {
			r, err := workload.RunLockFree(workload.LockFreeConfig{
				Threads: n, Work: dist.NewExponential(400), Round: dist.NewExponential(60),
				Serial: dist.NewDeterministic(5), WarmupTime: 10_000, MeasureTime: window, Seed: seed,
			})
			return simOut{value: r.X, conflict: r.Conflict, cycles: r.Ops}, err
		},
		check: func(m simOut) error {
			if err := within("X", model.X, m.value, bandLockFree); err != nil {
				return err
			}
			if model.Conflict <= 0 && m.conflict <= 0 {
				return nil
			}
			// A simulation with no conflicts where the model predicts
			// some is off by an infinite relative error and fails.
			return within("conflict", model.Conflict, m.conflict, bandLockFree)
		},
	}, nil
}

// sampleWindow is the measured window, in cycles, of a lock or
// lock-free point with n threads. Few threads complete few operations
// per cycle, so the window grows as 1/n (floor 200k cycles): at a fixed
// 200k, single-thread lock throughput missed its 10% band by sampling
// noise alone about once in a hundred passes.
func sampleWindow(n int) float64 { return max(200_000, 2_000_000/float64(n)) }

// sweepPointsList is Fig 5-2 (all-to-all, P=32, So=200, C² ∈ {0,1}),
// Fig 6-2 (work-pile, P=32, So=131, Ps = 2..16) and the lock and
// lock-free thread sweeps of lopc-validate.
func sweepPointsList() ([]simPoint, error) {
	var pts []simPoint
	add := func(p simPoint, err error) error {
		if err != nil {
			return err
		}
		pts = append(pts, p)
		return nil
	}
	for _, c2 := range []float64{0, 1} {
		for _, w := range []float64{0, 64, 256, 1024, 4096} {
			if err := add(allToAllPoint(w, c2)); err != nil {
				return nil, err
			}
		}
	}
	for ps := 2; ps <= 16; ps++ {
		if err := add(workpilePoint(ps)); err != nil {
			return nil, err
		}
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		if err := add(lockPoint(n)); err != nil {
			return nil, err
		}
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		if err := add(lockFreePoint(n)); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// setupSimSweep builds the points, solves the model at each, and warms
// each driver with one untimed run.
func setupSimSweep(seed uint64) (instance, error) {
	pts, err := sweepPointsList()
	if err != nil {
		return nil, err
	}
	warmed := map[string]bool{}
	for _, p := range pts {
		if warmed[p.driver] {
			continue
		}
		warmed[p.driver] = true
		if _, err := p.run(rng.SeedAt(seed, 0)); err != nil {
			return nil, fmt.Errorf("warm %s: %w", p.label, err)
		}
	}
	return &simSweepInst{points: pts, root: rng.SeedAt(seed, 2), clk: clock.System}, nil
}

type sweepResult struct {
	out  simOut
	took time.Duration
	err  error
}

func (s *simSweepInst) window(m *meter, tr *tracer) error {
	n := len(s.points) * seedsPerPoint
	base := uint64(s.pass * n)
	m.begin()
	span := tr.start(0, "runner", "map")
	t0 := s.clk.Now()
	// A failed run is carried in its result, not returned: Map would
	// stop the pass, and the check counts it as a failed op.
	res, err := runner.Map(n, runner.Options{Jobs: simJobs}, func(i int) (sweepResult, error) {
		p := s.points[i/seedsPerPoint]
		id := tr.start(span, "workload", p.driver)
		start := s.clk.Now()
		out, err := p.run(rng.SeedAt(s.root, base+uint64(i)))
		took := s.clk.Now().Sub(start)
		tr.end(id)
		return sweepResult{out: out, took: took, err: err}, nil
	})
	wall := s.clk.Now().Sub(t0)
	tr.end(span)
	if err != nil {
		return err
	}
	for _, r := range res {
		m.op(r.took)
	}
	m.end()

	check := tr.start(0, "check", "sim-sweep")
	defer tr.end(check)
	for pi, p := range s.points {
		var mean simOut
		var runErr error
		for k := 0; k < seedsPerPoint; k++ {
			r := res[pi*seedsPerPoint+k]
			if r.err != nil {
				runErr = r.err
				continue
			}
			mean.value += r.out.value / seedsPerPoint
			mean.conflict += r.out.conflict / seedsPerPoint
			if tr != nil {
				s.cycles[p.driver] += r.out.cycles
				s.hostTime[p.driver] += r.took
				s.a2aMsgs += r.out.msgs
				s.busy += r.took
			}
			if s.pass == 0 {
				s.pass0Msgs += r.out.msgs
			}
		}
		err := runErr
		if err == nil {
			err = p.check(mean)
		}
		if err != nil {
			m.fail(seedsPerPoint)
			m.report("pass %d %s: %v", s.pass, p.label, err)
		}
	}
	if tr != nil {
		s.wall += wall
	}
	s.pass++
	return nil
}

func (s *simSweepInst) beginTraced() {
	s.cycles = map[string]int64{}
	s.hostTime = map[string]time.Duration{}
	s.a2aMsgs, s.busy, s.wall = 0, 0, 0
}

func (s *simSweepInst) layers(_ *meter, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, d := range simDrivers {
		out["workload.run_ms."+d] = tr.meanUS("workload", d) / 1000
		out["sim.cycles_per_s."+d] = ratio(float64(s.cycles[d]), s.hostTime[d].Seconds())
	}
	out["machine.ns_per_msg"] = ratio(float64(s.hostTime["alltoall"].Nanoseconds()), float64(s.a2aMsgs))
	out["machine.msgs"] = float64(s.pass0Msgs)
	out["runner.busy_ratio"] = ratio(s.busy.Seconds(), simJobs*s.wall.Seconds())
	return out
}

// sim-par: all-to-all and work-pile at P = 1024 on every psim core.
// One window is one group: each scenario on parSeeds seeds, each run on
// seq, cons -j 2 and opt -j 2. Each run's measured statistics and
// committed event count must agree across the three cores. The two
// scenarios are sized so that runs cluster by core: on the reference
// host seq runs take ~30 ms, cons runs ~50 ms and opt runs ~90–130 ms,
// whichever the scenario. A group is 12 runs, 4 per core, so the median
// (rank 6 of 12) falls in the middle of the cons runs and p90 (rank
// 10.8) in the upper half of the opt runs, each clear of a boundary
// between two clusters. p95 sat among the very slowest opt runs, which
// a stalled worker stretches most: its spread over ten seeds was 0.15.

const (
	parP     = 1024
	parJobs  = 2
	parSeeds = 2
)

type parScenario struct {
	name string
	// run executes the scenario on the given core and returns the
	// fingerprint of its measured statistics.
	run func(seed uint64, par *workload.ParSim) ([]byte, error)
}

type simParInst struct {
	scenarios []parScenario
	root      uint64
	group     int
	clk       clock.Clock

	// traced-half per-core totals.
	events   map[string]uint64
	hostTime map[string]time.Duration
	rounds   uint64 // cons
	consEv   uint64
	rolled   uint64 // opt
	optEv    uint64
	// group0 holds group 0's committed events per core (summed over
	// scenarios) and the mean per-LP imbalance, exact for a seed.
	group0Events map[string]uint64
	group0Imbal  float64
}

func parScenarios(p int) ([]parScenario, error) {
	ps, err := core.OptimalServersInt(core.ClientServerParams{P: p, Ps: 1, W: 1500, St: 40, So: 131})
	if err != nil {
		return nil, err
	}
	return []parScenario{
		{name: "alltoall", run: func(seed uint64, par *workload.ParSim) ([]byte, error) {
			r, err := workload.RunAllToAll(workload.AllToAllConfig{
				P: p, Work: dist.NewDeterministic(1000), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(200), WarmupCycles: 3, MeasureCycles: 8, Seed: seed, Par: par,
			})
			if err != nil {
				return nil, err
			}
			return fingerprint(nil, []stats.Tally{r.R, r.Rw, r.Rq, r.Ry, r.Net}, r.X), nil
		}},
		{name: "workpile", run: func(seed uint64, par *workload.ParSim) ([]byte, error) {
			r, err := workload.RunWorkpile(workload.WorkpileConfig{
				P: p, Ps: ps, Chunk: dist.NewExponential(1500), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(131), WarmupTime: 3_000, MeasureTime: 20_000, Seed: seed, Par: par,
			})
			if err != nil {
				return nil, err
			}
			return fingerprint(binary.LittleEndian.AppendUint64(nil, uint64(r.Chunks)), []stats.Tally{r.R, r.Rs}, r.X, r.Qs, r.Us), nil
		}},
	}, nil
}

// fingerprint appends the exact bits of each tally's count, mean and
// variance and of each value, so two runs compare as bytes.
func fingerprint(b []byte, ts []stats.Tally, vals ...float64) []byte {
	for i := range ts {
		b = binary.LittleEndian.AppendUint64(b, uint64(ts[i].N()))
		vals = append(vals, ts[i].Mean(), ts[i].Variance())
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// setupSimPar builds the scenarios and warms every core on a small
// machine.
func setupSimPar(seed uint64) (instance, error) {
	scen, err := parScenarios(parP)
	if err != nil {
		return nil, err
	}
	small, err := parScenarios(64)
	if err != nil {
		return nil, err
	}
	for _, sc := range small {
		for _, c := range psimCores {
			if _, err := sc.run(rng.SeedAt(seed, 0), &workload.ParSim{Sync: c, Jobs: parJobs}); err != nil {
				return nil, fmt.Errorf("warm %s on %s: %w", sc.name, c, err)
			}
		}
	}
	for range parSeeds - 1 {
		scen = append(scen, scen[:2]...)
	}
	return &simParInst{scenarios: scen, root: rng.SeedAt(seed, 3), clk: clock.System}, nil
}

// parCores is the order a group runs the cores in.
var parCores = []string{"seq", "cons", "opt"}

func (s *simParInst) window(m *meter, tr *tracer) error {
	group := rng.SeedAt(s.root, uint64(s.group))
	type outcome struct {
		sig  []byte
		st   psim.RunStats
		took time.Duration
		err  error
	}
	outs := make([][]outcome, len(s.scenarios))
	m.begin()
	for si, sc := range s.scenarios {
		for _, c := range parCores {
			var o outcome
			id := tr.start(0, "psim", c)
			t0 := s.clk.Now()
			o.sig, o.err = sc.run(rng.SeedAt(group, uint64(si)), &workload.ParSim{Sync: c, Jobs: parJobs, Stats: &o.st})
			o.took = s.clk.Now().Sub(t0)
			tr.end(id)
			m.op(o.took)
			outs[si] = append(outs[si], o)
		}
	}
	m.end()

	check := tr.start(0, "check", "sim-par")
	defer tr.end(check)
	for si := range s.scenarios {
		ref := outs[si][0]
		bad := ref.err != nil
		for ci, o := range outs[si] {
			bad = bad || o.err != nil || !bytes.Equal(o.sig, ref.sig) || o.st.Events != ref.st.Events
			c := parCores[ci]
			if s.group == 0 {
				if s.group0Events == nil {
					s.group0Events = map[string]uint64{}
				}
				s.group0Events[c] += o.st.Events
				if c == "seq" {
					s.group0Imbal += imbalance(o.st.PerLP) / float64(len(s.scenarios))
				}
			}
			if tr != nil {
				s.events[c] += o.st.Events
				s.hostTime[c] += o.took
				switch c {
				case "cons":
					s.rounds += o.st.Rounds
					s.consEv += o.st.Events
				case "opt":
					s.rolled += o.st.RolledBack
					s.optEv += o.st.Events
				}
			}
		}
		if bad {
			m.fail(len(outs[si]))
			m.report("group %d %s: cores disagree or failed", s.group, s.scenarios[si].name)
		}
	}
	s.group++
	return nil
}

// imbalance is max over mean of the per-LP committed events.
func imbalance(perLP []uint64) float64 {
	var sum, peak uint64
	for _, e := range perLP {
		sum += e
		peak = max(peak, e)
	}
	if sum == 0 {
		return 0
	}
	return float64(peak) * float64(len(perLP)) / float64(sum)
}

func (s *simParInst) beginTraced() {
	s.events = map[string]uint64{}
	s.hostTime = map[string]time.Duration{}
	s.rounds, s.consEv, s.rolled, s.optEv = 0, 0, 0, 0
}

func (s *simParInst) layers(_ *meter, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, c := range psimCores {
		out["psim.run_ms."+c] = tr.meanUS("psim", c) / 1000
		out["psim.events_per_s."+c] = ratio(float64(s.events[c]), s.hostTime[c].Seconds())
		out["psim.events."+c] = float64(s.group0Events[c])
	}
	out["psim.events"] = float64(s.group0Events["seq"])
	out["psim.cons.events_per_round"] = ratio(float64(s.consEv), float64(s.rounds))
	out["psim.opt.rollback_ratio"] = ratio(float64(s.rolled), float64(s.optEv+s.rolled))
	out["psim.lp_imbalance"] = s.group0Imbal
	return out
}
