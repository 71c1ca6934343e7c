package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/runner"
)

// stdAllToAll returns the Figure 5-2 configuration at the given work.
func stdAllToAll(w float64, seed uint64) AllToAllConfig {
	return AllToAllConfig{
		P:             32,
		Work:          dist.NewDeterministic(w),
		Latency:       dist.NewDeterministic(40),
		Service:       dist.NewDeterministic(200),
		WarmupCycles:  300,
		MeasureCycles: 1500,
		Seed:          seed,
	}
}

func stdParams(w float64) core.Params {
	return core.Params{P: 32, W: w, St: 40, So: 200, C2: 0}
}

// TestAllToAllModelAccuracy is the headline validation of §5.3: across
// the work range of Figure 5-2, the LoPC prediction tracks the
// simulation within a few percent and errs on the pessimistic side,
// while the contention-free (naive LogP) estimate underpredicts badly
// at low W.
func TestAllToAllModelAccuracy(t *testing.T) {
	// The four sweep points are independent simulations; fan them out
	// on the parallel engine and assert over the ordered results. The
	// short tier keeps full fidelity (identical cycle counts) but trims
	// the sweep to its extremes and runs them through the conservative
	// core; the full tier runs the whole sweep on the sequential core.
	ws := []float64{0, 64, 512, 2048}
	var par *ParSim
	if testing.Short() {
		ws = []float64{0, 512}
		par = &ParSim{Sync: "cons", Jobs: 2}
	}
	sims, err := runner.Map(len(ws), runner.Options{}, func(i int) (AllToAllResult, error) {
		cfg := stdAllToAll(ws[i], 1)
		cfg.Par = par.perRep()
		return RunAllToAll(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		sim := sims[i]
		model, err := core.AllToAll(stdParams(w))
		if err != nil {
			t.Fatal(err)
		}
		rel := (model.R - sim.R.Mean()) / sim.R.Mean()
		if rel < -0.03 || rel > 0.10 {
			t.Errorf("W=%v: model R=%.1f vs sim R=%.1f (rel %.1f%%), outside the paper's error band",
				w, model.R, sim.R.Mean(), rel*100)
		}
		// Contention-free baseline must underpredict (the paper's -37%
		// at W=0 shrinking toward -13% at W=1024-2048).
		cf := stdParams(w).ContentionFree()
		cfErr := (cf - sim.R.Mean()) / sim.R.Mean()
		if cfErr > -0.05 {
			t.Errorf("W=%v: contention-free error %.1f%%, expected clearly negative", w, cfErr*100)
		}
		if w == 0 && (cfErr > -0.25 || cfErr < -0.45) {
			t.Errorf("W=0: contention-free error %.1f%%, paper reports about -37%%", cfErr*100)
		}
	}
}

// TestAllToAllComponentAccuracy checks the Figure 5-3 breakdown: each
// contention component predicted by the model tracks the simulator.
func TestAllToAllComponentAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, w := range []float64{64, 512} {
		sim, err := RunAllToAll(stdAllToAll(w, 2))
		if err != nil {
			t.Fatal(err)
		}
		model, err := core.AllToAll(stdParams(w))
		if err != nil {
			t.Fatal(err)
		}
		// Absolute tolerances of a fraction of So: the paper notes the
		// reply-handler component is where Bard's approximation is
		// loosest (it over-predicts Ry's queueing).
		if d := math.Abs(model.Rw - sim.Rw.Mean()); d > 0.25*200 {
			t.Errorf("W=%v: Rw model %.1f vs sim %.1f", w, model.Rw, sim.Rw.Mean())
		}
		if d := math.Abs(model.Rq - sim.Rq.Mean()); d > 0.25*200 {
			t.Errorf("W=%v: Rq model %.1f vs sim %.1f", w, model.Rq, sim.Rq.Mean())
		}
		if model.Ry < sim.Ry.Mean()-0.05*200 {
			t.Errorf("W=%v: Ry model %.1f below sim %.1f (should over-predict)", w, model.Ry, sim.Ry.Mean())
		}
		// Network time is contention-free: exactly 2·St per cycle.
		if d := math.Abs(sim.Net.Mean() - 80); d > 1e-9 {
			t.Errorf("W=%v: mean network time %.3f, want exactly 80", w, sim.Net.Mean())
		}
	}
}

// TestAllToAllQueueLengthsMatchModel compares the machine's measured
// queue lengths and utilizations with the model's Qq, Uq.
func TestAllToAllQueueLengthsMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sim, err := RunAllToAll(stdAllToAll(256, 3))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.AllToAll(stdParams(256))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(model.Uq - sim.Machine.UtilReq); d > 0.05 {
		t.Errorf("Uq model %.3f vs sim %.3f", model.Uq, sim.Machine.UtilReq)
	}
	if rel := (model.Qq - sim.Machine.ReqQueue) / math.Max(sim.Machine.ReqQueue, 0.05); rel < -0.15 || rel > 0.5 {
		t.Errorf("Qq model %.3f vs sim %.3f (Bard should slightly over-predict)", model.Qq, sim.Machine.ReqQueue)
	}
}

// TestAllToAllMachineAveragesFirstHalt compares the all-to-all
// Machine queue lengths and utilizations, taken from Little's law over
// the measured cycles, with the time averages the earlier all-to-all
// driver snapshot when the first thread halted (BENCH_sim.json,
// differential rows "none" and "hotspot-pattern": five-seed means at
// P=32, W=512, St=40, So=200, 100 + 1000 cycles). That window was
// common to all nodes; integrating each node to the run's last event
// instead read Qq 80% and Uq 54% low under the hotspot. The band is
// the differential's 8%.
func TestAllToAllMachineAveragesFirstHalt(t *testing.T) {
	cases := []struct {
		name    string
		pattern Pattern
		qq, uq  float64 // legacy first-halt means
	}{
		{"uniform", nil, 0.202065, 0.166916},
		{"hotspot 0.2", HotspotPattern{Hot: 0, Bias: 0.2}, 0.357349, 0.137115},
	}
	for _, tc := range cases {
		var qq, uq float64
		const seeds = 5
		for seed := uint64(1); seed <= seeds; seed++ {
			cfg := stdAllToAll(512, seed)
			cfg.WarmupCycles, cfg.MeasureCycles = 100, 1000
			cfg.Pattern = tc.pattern
			sim, err := RunAllToAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			qq += sim.Machine.ReqQueue / seeds
			uq += sim.Machine.UtilReq / seeds
		}
		if rel := qq/tc.qq - 1; math.Abs(rel) > 0.08 {
			t.Errorf("%s: Qq %.4f vs first-halt %.4f (%+.1f%%)", tc.name, qq, tc.qq, 100*rel)
		}
		if rel := uq/tc.uq - 1; math.Abs(rel) > 0.08 {
			t.Errorf("%s: Uq %.4f vs first-halt %.4f (%+.1f%%)", tc.name, uq, tc.uq, 100*rel)
		}
	}
}

// TestAllToAllThreadUtilPerCycle: the thread utilization is the mean
// measured compute per cycle over the mean cycle, so with deterministic
// work it reads W/mean R even under a hotspot, where a time average to
// the run's last event read 0.216 against 0.367.
func TestAllToAllThreadUtilPerCycle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := stdAllToAll(512, seed)
		cfg.WarmupCycles, cfg.MeasureCycles = 100, 1000
		cfg.Pattern = HotspotPattern{Hot: 0, Bias: 0.2}
		sim, err := RunAllToAll(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 512 / sim.R.Mean()
		if got := sim.Machine.ThreadUtil; math.Abs(got/want-1) > 0.02 {
			t.Errorf("seed %d: ThreadUtil %.4f, W/mean R %.4f", seed, got, want)
		}
	}
}

func TestAllToAllCycleIdentity(t *testing.T) {
	// Per-cycle identity: R = Rw + net + Rq + Ry holds in the mean
	// because the five tallies cover the cycle exactly.
	sim, err := RunAllToAll(stdAllToAll(128, 4))
	if err != nil {
		t.Fatal(err)
	}
	sum := sim.Rw.Mean() + sim.Net.Mean() + sim.Rq.Mean() + sim.Ry.Mean()
	if d := math.Abs(sum - sim.R.Mean()); d > 1e-6 {
		t.Errorf("component means sum to %.6f, R mean is %.6f", sum, sim.R.Mean())
	}
	if sim.R.N() != int64(32*1500) {
		t.Errorf("measured %d cycles, want %d", sim.R.N(), 32*1500)
	}
}

func TestAllToAllDeterministicBySeed(t *testing.T) {
	a, err := RunAllToAll(stdAllToAll(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAllToAll(stdAllToAll(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.R.Mean() != b.R.Mean() || a.Rq.Mean() != b.Rq.Mean() {
		t.Error("identical seeds produced different measurements")
	}
	c, err := RunAllToAll(stdAllToAll(100, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.R.Mean() == c.R.Mean() {
		t.Error("different seeds produced identical means (suspicious)")
	}
}

func TestRingPatternIsContentionFree(t *testing.T) {
	// A perfectly regular, synchronized, deterministic ring exchange
	// never contends: every cycle is exactly W + 2St + 2So.
	cfg := AllToAllConfig{
		P:             16,
		Work:          dist.NewDeterministic(500),
		Latency:       dist.NewDeterministic(40),
		Service:       dist.NewDeterministic(200),
		Pattern:       RingPattern{},
		WarmupCycles:  0,
		MeasureCycles: 50,
		Seed:          1,
	}
	sim, err := RunAllToAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 500 + 2*40 + 2*200.0
	if sim.R.Mean() != want || sim.R.Max() != want || sim.R.Min() != want {
		t.Errorf("ring cycle times [%v, %v] mean %v, want exactly %v",
			sim.R.Min(), sim.R.Max(), sim.R.Mean(), want)
	}
}

func TestRingPatternDecaysWithVariance(t *testing.T) {
	// With variable handler times the regular schedule decays and
	// contention appears (Brewer & Kuszmaul's CM-5 observation).
	cfg := AllToAllConfig{
		P:             16,
		Work:          dist.NewDeterministic(500),
		Latency:       dist.NewDeterministic(40),
		Service:       dist.NewExponential(200),
		Pattern:       RingPattern{},
		WarmupCycles:  200,
		MeasureCycles: 1000,
		Seed:          1,
	}
	sim, err := RunAllToAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cf := 500 + 2*40 + 2*200.0
	if sim.R.Mean() <= cf {
		t.Errorf("exponential-handler ring R = %v, expected contention above %v", sim.R.Mean(), cf)
	}
}

func TestShiftPattern(t *testing.T) {
	cfg := stdAllToAll(100, 5)
	cfg.P = 8
	cfg.Pattern = ShiftPattern{Offset: 3}
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 50
	if _, err := RunAllToAll(cfg); err != nil {
		t.Fatal(err)
	}
	if (ShiftPattern{Offset: 3}).String() == "" {
		t.Error("empty pattern name")
	}
}

func TestProtocolProcessorMatchesSharedMemoryModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := stdAllToAll(256, 9)
	cfg.ProtocolProcessor = true
	sim, err := RunAllToAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := stdParams(256)
	p.ProtocolProcessor = true
	model, err := core.AllToAll(p)
	if err != nil {
		t.Fatal(err)
	}
	rel := (model.R - sim.R.Mean()) / sim.R.Mean()
	if rel < -0.03 || rel > 0.10 {
		t.Errorf("PP mode: model R=%.1f vs sim R=%.1f (rel %.1f%%)", model.R, sim.R.Mean(), rel*100)
	}
	// Rw must be exactly W on every cycle: no preemption.
	if sim.Rw.Min() != 256 || sim.Rw.Max() != 256 {
		t.Errorf("PP mode Rw range [%v, %v], want exactly 256", sim.Rw.Min(), sim.Rw.Max())
	}
}

func TestAllToAllConfigValidation(t *testing.T) {
	bad := []AllToAllConfig{
		{P: 1, Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1},
		{P: 4, Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1},
		{P: 4, Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 0},
		{P: 4, Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1, WarmupCycles: -1},
	}
	for i, cfg := range bad {
		if _, err := RunAllToAll(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// --- Work-pile ---

func stdWorkpile(ps int, seed uint64) WorkpileConfig {
	return WorkpileConfig{
		P: 32, Ps: ps,
		Chunk:      dist.NewExponential(1500),
		Latency:    dist.NewDeterministic(40),
		Service:    dist.NewDeterministic(131),
		WarmupTime: 100_000, MeasureTime: 1_500_000,
		Seed: seed,
	}
}

func stdCSParams(ps int) core.ClientServerParams {
	return core.ClientServerParams{P: 32, Ps: ps, W: 1500, St: 40, So: 131, C2: 0}
}

// TestWorkpileModelAccuracy: the Chapter 6 model tracks simulated
// throughput within a few percent across the server-count range
// (the paper reports the model conservative by at most 3%).
func TestWorkpileModelAccuracy(t *testing.T) {
	// Short tier: full fidelity (identical windows) at the saturated and
	// near-optimal allocations, through the conservative core.
	pss := []int{2, 5, 9, 16, 24}
	var par *ParSim
	if testing.Short() {
		pss = []int{2, 9}
		par = &ParSim{Sync: "cons", Jobs: 2}
	}
	for _, ps := range pss {
		cfg := stdWorkpile(ps, 11)
		cfg.Par = par.perRep()
		sim, err := RunWorkpile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model, err := core.ClientServer(stdCSParams(ps))
		if err != nil {
			t.Fatal(err)
		}
		rel := (model.X - sim.X) / sim.X
		if math.Abs(rel) > 0.08 {
			t.Errorf("Ps=%d: model X=%.5f vs sim X=%.5f (rel %.1f%%)", ps, model.X, sim.X, rel*100)
		}
		// Server response times. Bard's approximation overestimates the
		// queue seen on arrival, and most at saturation (few servers),
		// so allow a wider, one-sided-leaning band there; the paper's
		// accuracy claim is about throughput, which the check above
		// holds to a few percent.
		relRs := (model.Rs - sim.Rs.Mean()) / sim.Rs.Mean()
		tol := 0.12
		if ps <= 3 {
			tol = 0.16
		}
		if math.Abs(relRs) > tol {
			t.Errorf("Ps=%d: model Rs=%.1f vs sim Rs=%.1f (rel %.1f%%)", ps, model.Rs, sim.Rs.Mean(), relRs*100)
		}
	}
}

// TestWorkpileOptimumLocation: the simulated throughput peaks within
// one server of the Eq. 6.8 closed form.
func TestWorkpileOptimumLocation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt, err := core.OptimalServersInt(stdCSParams(1))
	if err != nil {
		t.Fatal(err)
	}
	xAt := func(ps int) float64 {
		sim, err := RunWorkpile(stdWorkpile(ps, 13))
		if err != nil {
			t.Fatal(err)
		}
		return sim.X
	}
	xOpt := math.Max(xAt(opt), math.Max(xAt(opt-1), xAt(opt+1)))
	// Far-off allocations must be clearly worse.
	if xFar := xAt(opt + 10); xFar >= xOpt {
		t.Errorf("X at Ps=%d (%.5f) not below optimum band (%.5f)", opt+10, xFar, xOpt)
	}
	if xFar := xAt(1); opt > 3 && xFar >= xOpt {
		t.Errorf("X at Ps=1 (%.5f) not below optimum band (%.5f)", xFar, xOpt)
	}
}

// TestWorkpileQueueLengthAtOptimum: the Chapter 6 argument — at the
// optimal allocation the mean queue length per server is about 1.
func TestWorkpileQueueLengthAtOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt, err := core.OptimalServersInt(stdCSParams(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := RunWorkpile(stdWorkpile(opt, 17))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Qs < 0.5 || sim.Qs > 1.8 {
		t.Errorf("Qs at optimal allocation = %.3f, expected near 1", sim.Qs)
	}
}

func TestWorkpileBoundsHold(t *testing.T) {
	for _, ps := range []int{2, 16} {
		sim, err := RunWorkpile(stdWorkpile(ps, 19))
		if err != nil {
			t.Fatal(err)
		}
		server, client := core.ClientServerBounds(stdCSParams(ps))
		bound := math.Min(server, client)
		if sim.X > bound*1.02 {
			t.Errorf("Ps=%d: sim X=%.5f exceeds optimistic bound %.5f", ps, sim.X, bound)
		}
	}
}

func TestWorkpileConfigValidation(t *testing.T) {
	bad := []WorkpileConfig{
		{P: 4, Ps: 0, Chunk: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureTime: 1},
		{P: 4, Ps: 4, Chunk: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureTime: 1},
		{P: 4, Ps: 1, Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureTime: 1},
		{P: 4, Ps: 1, Chunk: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureTime: 0},
	}
	for i, cfg := range bad {
		if _, err := RunWorkpile(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// --- Multi-hop ---

func TestMultiHopMatchesGeneralModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, hops := range []int{1, 2, 3} {
		cfg := MultiHopConfig{
			P: 16, Hops: hops,
			Work:         dist.NewDeterministic(1000),
			Latency:      dist.NewDeterministic(40),
			Service:      dist.NewDeterministic(150),
			WarmupCycles: 200, MeasureCycles: 1000,
			Seed: 23,
		}
		sim, err := RunMultiHop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]float64, 16)
		for i := range ws {
			ws[i] = 1000
		}
		model, err := core.General(core.GeneralParams{
			P: 16, W: ws, V: core.MultiHopVisits(16, hops),
			St: 40, So: []float64{150}, C2: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := (model.R[0] - sim.R.Mean()) / sim.R.Mean()
		// The simulation forwards uniformly from the current holder
		// (which can revisit the originator), while the model spreads
		// visits from the originator's viewpoint; allow a wider band
		// than single-hop.
		if math.Abs(rel) > 0.10 {
			t.Errorf("hops=%d: model R=%.1f vs sim R=%.1f (rel %.1f%%)", hops, model.R[0], sim.R.Mean(), rel*100)
		}
		if n := sim.RqPerHop.N(); n != int64(16*1000*hops) {
			t.Errorf("hops=%d: recorded %d hop responses, want %d", hops, n, 16*1000*hops)
		}
	}
}

func TestMultiHopConfigValidation(t *testing.T) {
	good := MultiHopConfig{
		P: 4, Hops: 1,
		Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1),
		MeasureCycles: 1,
	}
	if _, err := RunMultiHop(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []MultiHopConfig{
		{P: 2, Hops: 1, Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1},
		{P: 4, Hops: 0, Work: dist.NewDeterministic(1), Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1},
		{P: 4, Hops: 1, Latency: dist.NewDeterministic(1), Service: dist.NewDeterministic(1), MeasureCycles: 1},
	}
	for i, cfg := range bad {
		if _, err := RunMultiHop(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// --- Patterns ---

func TestHotspotVisitsRowsSumToOne(t *testing.T) {
	v := HotspotVisits(8, 3, 0.5)
	for c, row := range v {
		sum := 0.0
		for k, x := range row {
			if k == c && x != 0 {
				t.Errorf("self-visit at %d", c)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", c, sum)
		}
	}
	// The hot node's row is uniform.
	if v[3][0] != 1.0/7 {
		t.Errorf("hot row entry = %v, want 1/7", v[3][0])
	}
}

func TestHotspotPatternLoadsHotNode(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := stdAllToAll(512, 29)
	cfg.P = 16
	cfg.Pattern = HotspotPattern{Hot: 0, Bias: 0.5}
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 500
	sim, err := RunAllToAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The hot node absorbs far more requests, raising overall Rq above
	// the homogeneous prediction.
	homog, err := core.AllToAll(core.Params{P: 16, W: 512, St: 40, So: 200, C2: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Rq.Mean() <= homog.Rq {
		t.Errorf("hotspot Rq %.1f not above homogeneous %.1f", sim.Rq.Mean(), homog.Rq)
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range []Pattern{UniformPattern{}, RingPattern{}, ShiftPattern{1}, HotspotPattern{0, 0.5}} {
		if p.String() == "" {
			t.Errorf("%T has empty String", p)
		}
	}
}
