package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/psim"
	"repro/internal/trace"
)

// parCase is one core and job count of the contract matrix.
type parCase struct {
	name string
	sync string
	jobs int
}

// parCases is the core/job matrix every workload must agree across.
var parCases = []parCase{
	{"seq", "seq", 1},
	{"cons/j1", "cons", 1},
	{"cons/j2", "cons", 2},
	{"cons/j8", "cons", 8},
	{"opt/j1", "opt", 1},
	{"opt/j8", "opt", 8},
}

// consCases is the matrix for runs the optimistic core refuses: the
// all-to-all extras that keep state outside the checkpointed node.
var consCases = parCases[:4]

// runPar runs one workload under one core and returns its trace bytes,
// its result, and the core statistics.
func runPar[T any](t *testing.T, run func(par *ParSim) (T, error), sync string, jobs int) ([]byte, T, psim.RunStats) {
	t.Helper()
	var tr psim.Trace
	var rs psim.RunStats
	res, err := run(&ParSim{Sync: sync, Jobs: jobs, Trace: &tr, Stats: &rs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res, rs
}

// checkParContract asserts the determinism contract for one workload:
// the sequential trace's sha256 is wantSHA, and the traces are
// byte-identical and the measurements identical across every core and
// job count of cases (which starts with seq). It returns the sequential
// result.
//
// The pinned hashes hold each workload's committed event set fixed: a
// change to the kernel's queues or to event passing must commit the
// same events, not just the same events on every core. A change that
// alters a model on purpose re-pins them and says why.
func checkParContract[T any](t *testing.T, cases []parCase, wantSHA string, run func(par *ParSim) (T, error)) T {
	t.Helper()
	wantTrace, wantRes, wantRS := runPar(t, run, "seq", 1)
	if wantRS.Events == 0 {
		t.Fatal("sequential run committed no events")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(wantTrace)); got != wantSHA {
		t.Errorf("sequential trace sha256 %s (%d events), pinned %s", got, wantRS.Events, wantSHA)
	}
	for _, tc := range cases[1:] {
		gotTrace, gotRes, gotRS := runPar(t, run, tc.sync, tc.jobs)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%s: trace differs from sequential (%d vs %d bytes)", tc.name, len(gotTrace), len(wantTrace))
			continue
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: result differs from sequential:\n got %+v\nwant %+v", tc.name, gotRes, wantRes)
		}
		if gotRS.Events != wantRS.Events || gotRS.MaxTime != wantRS.MaxTime || !reflect.DeepEqual(gotRS.PerLP, wantRS.PerLP) {
			t.Errorf("%s: core stats differ: events %d/%d maxtime %v/%v",
				tc.name, gotRS.Events, wantRS.Events, gotRS.MaxTime, wantRS.MaxTime)
		}
	}
	return wantRes
}

func TestAllToAllParContract(t *testing.T) {
	checkParContract(t, parCases, "06dbe8481917d486ed84f681f9b5a4c170af45d4332ee70020a0f2190aa27350", func(par *ParSim) (AllToAllResult, error) {
		return RunAllToAll(AllToAllConfig{
			P:             8,
			Work:          dist.NewDeterministic(100),
			Latency:       dist.NewDeterministic(10),
			Service:       dist.NewExponential(20),
			WarmupCycles:  5,
			MeasureCycles: 40,
			Seed:          7,
			Par:           par,
		})
	})
}

func TestAllToAllParProtocolProcessor(t *testing.T) {
	checkParContract(t, parCases, "ba28a099273636a5c8b2d6d6f0216deeb14f037018773065212cc4eadc360a7b", func(par *ParSim) (AllToAllResult, error) {
		return RunAllToAll(AllToAllConfig{
			P:                 6,
			Work:              dist.NewDeterministic(100),
			Latency:           dist.NewDeterministic(10),
			Service:           dist.NewExponential(20),
			WarmupCycles:      3,
			MeasureCycles:     25,
			ProtocolProcessor: true,
			Pattern:           RingPattern{},
			Seed:              11,
			Par:               par,
		})
	})
}

func TestWorkpileParContract(t *testing.T) {
	checkParContract(t, parCases, "972965668008f6c6fa3b26034633a3086d372488476a5ed19c68ddb813112f5f", func(par *ParSim) (WorkpileResult, error) {
		return RunWorkpile(WorkpileConfig{
			P: 8, Ps: 2,
			Chunk:      dist.NewExponential(200),
			Latency:    dist.NewDeterministic(10),
			Service:    dist.NewExponential(30),
			WarmupTime: 500, MeasureTime: 4000,
			Seed: 3,
			Par:  par,
		})
	})
}

func TestLockParContract(t *testing.T) {
	checkParContract(t, parCases, "5d2155c7eb849f75d4c1257000a3cc92676e3cfcc0b54c85da90c10e05625a0d", func(par *ParSim) (LockSimResult, error) {
		return RunLock(LockConfig{
			Threads:    6,
			Work:       dist.NewExponential(300),
			Handoff:    dist.NewDeterministic(15),
			Critical:   dist.NewExponential(50),
			WarmupTime: 500, MeasureTime: 5000,
			Seed: 5,
			Par:  par,
		})
	})
}

func TestLockFreeParContract(t *testing.T) {
	checkParContract(t, parCases, "10dc423b0855b3514b118ad0266244499d450b6bfd76665992ce102289b29570", func(par *ParSim) (LockFreeSimResult, error) {
		return RunLockFree(LockFreeConfig{
			Threads:    6,
			Work:       dist.NewExponential(200),
			Round:      dist.NewExponential(40),
			Serial:     dist.NewDeterministic(10),
			WarmupTime: 500, MeasureTime: 5000,
			Seed: 9,
			Par:  par,
		})
	})
}

// The multi-hop, multithread, non-blocking and exchange drivers use the
// machine's hooks and several threads per node, which the optimistic
// core refuses: they run the seq and cons rows.

func TestMultiHopParContract(t *testing.T) {
	res := checkParContract(t, consCases, "37bf8ad2fc72b77276ccf53529a6d7099e1a6c7d4c44ea4bf2fe4d7439bb01bd", func(par *ParSim) (MultiHopResult, error) {
		return RunMultiHop(MultiHopConfig{
			P: 6, Hops: 3,
			Work:         dist.NewExponential(80),
			Latency:      dist.NewDeterministic(10),
			Service:      dist.NewExponential(20),
			WarmupCycles: 4, MeasureCycles: 30,
			Seed: 17,
			Par:  par,
		})
	})
	if n := res.RqPerHop.N(); n != 6*30*3 {
		t.Fatalf("recorded %d hop responses, want %d", n, 6*30*3)
	}
}

func TestMultithreadParContract(t *testing.T) {
	res := checkParContract(t, consCases, "d6854efe38d0dc864867f45078c1aade8c89bacc44c101c68e4bcd87f24735e6", func(par *ParSim) (MultithreadResult, error) {
		return RunMultithread(MultithreadConfig{
			P: 5, T: 3,
			Work:         dist.NewExponential(60),
			Latency:      dist.NewDeterministic(10),
			Service:      dist.NewExponential(20),
			WarmupCycles: 4, MeasureCycles: 25,
			Seed: 19,
			Par:  par,
		})
	})
	if n := res.R.N(); n != 5*3*25 {
		t.Fatalf("recorded %d thread cycles, want %d", n, 5*3*25)
	}
}

func TestNonBlockingParContract(t *testing.T) {
	for _, tc := range []struct {
		pp  bool
		sha string
	}{
		{false, "191f8f5a152544b97f5b076670a46cca85ec326117075eaaae18c29776696dcf"},
		{true, "679397576428cd9528cb86a3171a1b2920adc3c8c8a57ce0cf9c056f5f420b88"},
	} {
		checkParContract(t, consCases, tc.sha, func(par *ParSim) (NonBlockingResult, error) {
			return RunNonBlocking(NonBlockingConfig{
				P:            6,
				Work:         dist.NewExponential(50),
				Latency:      dist.NewDeterministic(10),
				Service:      dist.NewExponential(20),
				WarmupCycles: 5, MeasureCycles: 40,
				ProtocolProcessor: tc.pp,
				Seed:              23,
				Par:               par,
			})
		})
	}
}

func TestExchangeParContract(t *testing.T) {
	checkParContract(t, consCases, "617cd88d5d2ca0435ebe066f97b3dfee2900d848455925be3595953555298d1e", func(par *ParSim) (ExchangeResult, error) {
		return RunExchange(ExchangeConfig{
			P: 6, Rounds: 5,
			SendOverhead: 3,
			Latency:      dist.NewDeterministic(10),
			Handler:      dist.NewExponential(4),
			Barrier:      true,
			Seed:         29,
			Par:          par,
		})
	})
}

// extrasConfig is the all-to-all configuration the extras rows of the
// contract vary.
func extrasConfig(par *ParSim) AllToAllConfig {
	return AllToAllConfig{
		P:             9,
		Work:          dist.NewExponential(60),
		Latency:       dist.NewDeterministic(10),
		Service:       dist.NewExponential(20),
		WarmupCycles:  5,
		MeasureCycles: 40,
		Seed:          13,
		Par:           par,
	}
}

func TestAllToAllLinkOccupancyParContract(t *testing.T) {
	res := checkParContract(t, consCases, "763480f50e69c109bea0175a85229cb8c847122ee5bd2143d955fcb6fd424c04", func(par *ParSim) (AllToAllResult, error) {
		cfg := extrasConfig(par)
		cfg.LinkOccupancy = 15
		return RunAllToAll(cfg)
	})
	if net := res.Net.Mean(); net < 2*(10+15) {
		t.Fatalf("mean wire time per cycle %v, want at least two trips of latency plus occupancy (50)", net)
	}
}

func TestAllToAllNIQueueParContract(t *testing.T) {
	res := checkParContract(t, consCases, "f99a22547c762a7cfaf23dff3dee1d4b00570a0f1e00b8cb362835e2a914d051", func(par *ParSim) (AllToAllResult, error) {
		cfg := extrasConfig(par)
		cfg.Work = dist.NewDeterministic(0)
		cfg.NIQueueCap, cfg.RetryDelay = 1, 7
		return RunAllToAll(cfg)
	})
	if res.Nacks == 0 {
		t.Fatal("queue cap 1 at W=0 bounced no message: the row does not exercise NACKs")
	}
}

// TestAllToAllPairLatencyParContract runs a 3×3 torus whose one-hop
// pairs (6 cycles) undercut Latency's 10: the lookahead drops to 6.
// Pair latencies are stateless, so the optimistic core runs them too.
func TestAllToAllPairLatencyParContract(t *testing.T) {
	res := checkParContract(t, parCases, "7e150a4df2af90af548383666a6d5db51eb6941857370916a3dc3271ce0bc7f6", func(par *ParSim) (AllToAllResult, error) {
		cfg := extrasConfig(par)
		cfg.PairLatency = func(src, dst int) float64 {
			dx, dy := src%3-dst%3, src/3-dst/3
			return 6 * float64(min(dx*dx, 1)+min(dy*dy, 1))
		}
		return RunAllToAll(cfg)
	})
	if net := res.Net.Mean(); net < 2*6 || net > 2*12 {
		t.Fatalf("mean wire time per cycle %v, want two torus trips in [12, 24]", net)
	}
}

// TestParRejectsUnsupported checks that a run fails fast on a core
// outside its envelope: the optimistic core refuses the stateful
// extras, the Observer (which also needs the sequential core), and the
// hook-driven drivers.
func TestParRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*AllToAllConfig)
	}{
		{"opt link occupancy", func(c *AllToAllConfig) { c.LinkOccupancy, c.Par = 0.5, &ParSim{Sync: "opt"} }},
		{"opt ni queue cap", func(c *AllToAllConfig) { c.NIQueueCap, c.Par = 4, &ParSim{Sync: "opt"} }},
		{"opt observer", func(c *AllToAllConfig) { c.Observer, c.Par = &trace.Tracer{}, &ParSim{Sync: "opt"} }},
		{"cons observer", func(c *AllToAllConfig) { c.Observer, c.Par = &trace.Tracer{}, &ParSim{Sync: "cons"} }},
		{"bad sync", func(c *AllToAllConfig) { c.Par = &ParSim{Sync: "speculative"} }},
	}
	for _, tc := range cases {
		cfg := extrasConfig(nil)
		tc.mutate(&cfg)
		if _, err := RunAllToAll(cfg); err == nil {
			t.Errorf("%s: run accepted an unsupported config", tc.name)
		}
	}
	// The optimistic core refuses hooks and several threads per node.
	opt := &ParSim{Sync: "opt"}
	d := dist.NewDeterministic(10)
	for name, run := range map[string]func() error{
		"opt multihop": func() error {
			_, err := RunMultiHop(MultiHopConfig{P: 4, Hops: 2, Work: d, Latency: d, Service: d, MeasureCycles: 2, Par: opt})
			return err
		},
		"opt multithread": func() error {
			_, err := RunMultithread(MultithreadConfig{P: 4, T: 2, Work: d, Latency: d, Service: d, MeasureCycles: 2, Par: opt})
			return err
		},
		"opt nonblocking": func() error {
			_, err := RunNonBlocking(NonBlockingConfig{P: 4, Work: d, Latency: d, Service: d, MeasureCycles: 2, Par: opt})
			return err
		},
		"opt exchange": func() error {
			_, err := RunExchange(ExchangeConfig{P: 4, Rounds: 2, Latency: d, Handler: d, Par: opt})
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: run accepted an unsupported config", name)
		}
	}
	cfg := extrasConfig(nil)
	tr := &trace.Tracer{}
	cfg.Observer = tr
	if _, err := RunAllToAll(cfg); err != nil || tr.Len() == 0 {
		t.Errorf("sequential run with an Observer: err %v, %d trace events", err, tr.Len())
	}
}
