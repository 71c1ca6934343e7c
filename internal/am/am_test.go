package am

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/logp"
	"repro/internal/psim"
	"repro/internal/workload"
)

func detConfig(p int, o, l, h float64) Config {
	return Config{
		P:            p,
		Latency:      dist.NewDeterministic(l),
		Handler:      dist.NewDeterministic(h),
		SendOverhead: o,
		Seed:         1,
	}
}

// TestScheduleMatchesLogP: with send overhead equal to handler cost the
// generalized schedule is exactly the LogP optimal broadcast.
func TestScheduleMatchesLogP(t *testing.T) {
	for _, p := range []int{1, 2, 5, 16, 33} {
		lg := logp.Params{L: 40, O: 5, G: 0, P: p}
		wantFinish, wantTimes, wantParent, err := lg.BroadcastTree()
		if err != nil {
			t.Fatal(err)
		}
		finish, times, parent := Schedule(p, 5, 40, 5)
		if math.Abs(finish-wantFinish) > 1e-9 {
			t.Errorf("P=%d: finish %v, LogP %v", p, finish, wantFinish)
		}
		for i := range times {
			if math.Abs(times[i]-wantTimes[i]) > 1e-9 {
				t.Errorf("P=%d: informed[%d] = %v, LogP %v", p, i, times[i], wantTimes[i])
			}
			if parent[i] != wantParent[i] {
				t.Errorf("P=%d: parent[%d] = %d, LogP %d", p, i, parent[i], wantParent[i])
			}
		}
	}
}

// TestBroadcastExecutesScheduleExactly: on a deterministic machine the
// simulated informed times equal the analytical schedule to the cycle.
func TestBroadcastExecutesScheduleExactly(t *testing.T) {
	for _, p := range []int{2, 7, 16, 32} {
		cfg := detConfig(p, 10, 40, 25)
		res, err := Broadcast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := Schedule(p, 10, 40, 25)
		for i := 1; i < p; i++ {
			if math.Abs(res.InformedAt[i]-want[i]) > 1e-9 {
				t.Fatalf("P=%d node %d informed at %v, schedule says %v", p, i, res.InformedAt[i], want[i])
			}
		}
		if math.Abs(res.Finish-res.Predicted) > 1e-9 {
			t.Errorf("P=%d: finish %v != predicted %v", p, res.Finish, res.Predicted)
		}
	}
}

func TestBroadcastSingleNode(t *testing.T) {
	res, err := Broadcast(detConfig(1, 5, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != 0 {
		t.Errorf("P=1 finish = %v", res.Finish)
	}
}

func TestBroadcastZeroOverhead(t *testing.T) {
	// o = 0: the root informs everyone directly at l + h.
	res, err := Broadcast(detConfig(8, 0, 40, 25))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Finish-65) > 1e-9 {
		t.Errorf("finish %v, want 65 (single hop, no send spacing)", res.Finish)
	}
}

func TestBroadcastVarianceSlowsFinish(t *testing.T) {
	// Exponential handlers: mean finish exceeds the deterministic
	// schedule (max over random paths), echoing Brewer & Kuszmaul's
	// observation that regular schedules decay on real machines.
	det, err := Broadcast(detConfig(32, 10, 40, 25))
	if err != nil {
		t.Fatal(err)
	}
	sumFinish := 0.0
	const trials = 20
	for s := uint64(1); s <= trials; s++ {
		cfg := detConfig(32, 10, 40, 25)
		cfg.Handler = dist.NewExponential(25)
		cfg.Seed = s
		r, err := Broadcast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sumFinish += r.Finish
	}
	if mean := sumFinish / trials; mean <= det.Finish {
		t.Errorf("mean exponential-handler finish %v not above deterministic %v", mean, det.Finish)
	}
}

func TestReduceValueAndTiming(t *testing.T) {
	for _, p := range []int{2, 4, 16, 32} {
		cfg := detConfig(p, 10, 40, 25)
		values := make([]float64, p)
		want := 0.0
		for i := range values {
			values[i] = float64(i + 1)
			want += values[i]
		}
		res, err := Reduce(cfg, values)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("P=%d: reduced value %v, want %v", p, res.Value, want)
		}
		// Power-of-two machines with symmetric deterministic costs run
		// exactly ceil(log2 P) synchronized rounds.
		if math.Abs(res.Finish-res.Predicted) > 1e-9 {
			t.Errorf("P=%d: finish %v != predicted %v", p, res.Finish, res.Predicted)
		}
	}
}

func TestReduceNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 7, 12, 31} {
		cfg := detConfig(p, 10, 40, 25)
		values := make([]float64, p)
		want := 0.0
		for i := range values {
			values[i] = float64(2*i + 1)
			want += values[i]
		}
		res, err := Reduce(cfg, values)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("P=%d: reduced value %v, want %v", p, res.Value, want)
		}
		if res.Finish <= 0 || res.Finish > res.Predicted+1e-9 {
			t.Errorf("P=%d: finish %v outside (0, predicted %v]", p, res.Finish, res.Predicted)
		}
	}
}

func TestReduceWrongValueCount(t *testing.T) {
	if _, err := Reduce(detConfig(4, 1, 1, 1), []float64{1, 2}); err == nil {
		t.Error("mismatched value count accepted")
	}
}

func TestBarrierDeterministicCost(t *testing.T) {
	// Power-of-two dissemination barrier with symmetric deterministic
	// costs: every barrier takes exactly rounds·(o + l + h).
	for _, p := range []int{2, 4, 16, 32} {
		cfg := detConfig(p, 10, 40, 25)
		res, err := Barrier(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.PerBarrier-res.Predicted) > 1e-9 {
			t.Errorf("P=%d: per-barrier %v != predicted %v", p, res.PerBarrier, res.Predicted)
		}
		if res.Tally.N() != 5 {
			t.Errorf("P=%d: %d barrier intervals, want 5", p, res.Tally.N())
		}
		// All intervals identical in the deterministic case.
		if res.Tally.Max()-res.Tally.Min() > 1e-9 {
			t.Errorf("P=%d: barrier intervals vary: [%v, %v]", p, res.Tally.Min(), res.Tally.Max())
		}
	}
}

func TestBarrierNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 6, 17} {
		res, err := Barrier(detConfig(p, 10, 40, 25), 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerBarrier <= 0 {
			t.Errorf("P=%d: per-barrier %v", p, res.PerBarrier)
		}
		if res.Rounds != ceilLog2(p) {
			t.Errorf("P=%d: rounds %d", p, res.Rounds)
		}
	}
}

func TestBarrierVariancePenalty(t *testing.T) {
	// Exponential handlers make each round a max over P random paths,
	// so the mean barrier cost exceeds the deterministic model — the
	// reason cheap hardware barriers (T3E-style) are attractive and,
	// absent them, regular schedules decay (Ch. 1).
	det, err := Barrier(detConfig(32, 10, 40, 25), 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := detConfig(32, 10, 40, 25)
	cfg.Handler = dist.NewExponential(25)
	exp, err := Barrier(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if exp.PerBarrier <= det.PerBarrier {
		t.Errorf("exponential barrier %v not above deterministic %v", exp.PerBarrier, det.PerBarrier)
	}
}

func TestBarrierInvalidConfig(t *testing.T) {
	if _, err := Barrier(detConfig(4, 1, 1, 1), 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := detConfig(0, 1, 1, 1)
	if _, err := Barrier(bad, 1); err == nil {
		t.Error("P=0 accepted")
	}
	neg := detConfig(4, -1, 1, 1)
	if _, err := Broadcast(neg); err == nil {
		t.Error("negative send overhead accepted")
	}
	nilDist := Config{P: 4, SendOverhead: 1, Seed: 1}
	if _, err := Reduce(nilDist, make([]float64, 4)); err == nil {
		t.Error("nil distributions accepted")
	}
}

func TestReduceRoundsStructure(t *testing.T) {
	// P = 8: node 0 receives rounds 0,1,2; node 1 sends round 0;
	// node 2 receives round 0 then sends round 1; node 4 receives
	// rounds 0,1 then sends round 2.
	cases := []struct {
		self int
		recv []int
		send int
	}{
		{0, []int{0, 1, 2}, -1},
		{1, nil, 0},
		{2, []int{0}, 1},
		{3, nil, 0},
		{4, []int{0, 1}, 2},
		{6, []int{0}, 1},
		{7, nil, 0},
	}
	for _, c := range cases {
		recv, send := reduceRounds(c.self, 8)
		if send != c.send {
			t.Errorf("node %d: send round %d, want %d", c.self, send, c.send)
		}
		if len(recv) != len(c.recv) {
			t.Errorf("node %d: recv %v, want %v", c.self, recv, c.recv)
			continue
		}
		for i := range recv {
			if recv[i] != c.recv[i] {
				t.Errorf("node %d: recv %v, want %v", c.self, recv, c.recv)
			}
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 32: 5, 33: 6}
	for p, want := range cases {
		if got := ceilLog2(p); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestBroadcastDeterminism(t *testing.T) {
	cfg := detConfig(16, 10, 40, 25)
	cfg.Handler = dist.NewExponential(25)
	a, err := Broadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Broadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Finish != b.Finish {
		t.Error("same seed gave different broadcast finishes")
	}
}

func TestAllReduce(t *testing.T) {
	for _, p := range []int{2, 8, 13, 32} {
		cfg := detConfig(p, 10, 40, 25)
		values := make([]float64, p)
		want := 0.0
		for i := range values {
			values[i] = float64(i + 1)
			want += values[i]
		}
		res, err := AllReduce(cfg, values)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Values {
			if v != want {
				t.Fatalf("P=%d node %d got %v, want %v", p, i, v, want)
			}
		}
		if res.Finish <= 0 {
			t.Fatalf("P=%d finish %v", p, res.Finish)
		}
		// Deterministic: composition is exact for power-of-two P (both
		// phases are exact there).
		if p&(p-1) == 0 && math.Abs(res.Finish-res.Predicted) > 1e-9 {
			t.Errorf("P=%d: finish %v != predicted %v", p, res.Finish, res.Predicted)
		}
	}
}

func TestAllReduceErrors(t *testing.T) {
	if _, err := AllReduce(detConfig(4, 1, 1, 1), []float64{1}); err == nil {
		t.Error("wrong value count accepted")
	}
}

// TestBarrierParContract holds the collectives to the machine's
// determinism contract: a barrier run with exponential handlers commits
// a byte-identical trace, the same core statistics and the same result
// on the sequential core and on the conservative core at every job
// count. The optimistic core refuses the collectives' hooks.
func TestBarrierParContract(t *testing.T) {
	run := func(sync string, jobs int) ([]byte, BarrierResult, psim.RunStats) {
		var tr psim.Trace
		var rs psim.RunStats
		cfg := detConfig(7, 3, 10, 5)
		cfg.Handler = dist.NewExponential(5)
		cfg.Seed = 31
		cfg.Par = &workload.ParSim{Sync: sync, Jobs: jobs, Trace: &tr, Stats: &rs}
		res, err := Barrier(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res, rs
	}
	wantTrace, wantRes, wantRS := run("seq", 1)
	if wantRS.Events == 0 {
		t.Fatal("sequential run committed no events")
	}
	// The committed event set is pinned, as in workload's ParContract
	// tests.
	const wantSHA = "ea59633e90476d3212b59b2f1d5d4940b52bbb0fbae0afee9d207865528e43b2"
	if got := fmt.Sprintf("%x", sha256.Sum256(wantTrace)); got != wantSHA {
		t.Errorf("sequential trace sha256 %s (%d events), pinned %s", got, wantRS.Events, wantSHA)
	}
	for _, jobs := range []int{1, 2, 8} {
		gotTrace, gotRes, gotRS := run("cons", jobs)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("cons/j%d: trace differs from sequential (%d vs %d bytes)", jobs, len(gotTrace), len(wantTrace))
			continue
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("cons/j%d: result differs from sequential:\n got %+v\nwant %+v", jobs, gotRes, wantRes)
		}
		if gotRS.Events != wantRS.Events || gotRS.MaxTime != wantRS.MaxTime || !reflect.DeepEqual(gotRS.PerLP, wantRS.PerLP) {
			t.Errorf("cons/j%d: core stats differ: events %d/%d maxtime %v/%v",
				jobs, gotRS.Events, wantRS.Events, gotRS.MaxTime, wantRS.MaxTime)
		}
	}
	cfg := detConfig(7, 3, 10, 5)
	cfg.Par = &workload.ParSim{Sync: "opt"}
	if _, err := Barrier(cfg, 2); err == nil {
		t.Error("opt core accepted a collective")
	}
}
