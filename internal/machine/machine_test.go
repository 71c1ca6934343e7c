package machine_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/psim"
)

// twoPhaseProg alternates Compute and Request explicitly.
type twoPhaseProg struct {
	dst     int
	compute float64
	cycles  int

	phase  int // 0: compute next, 1: request next
	done   int
	rounds []machine.CycleInfo
}

func (p *twoPhaseProg) Next(v *machine.NodeView) machine.Action {
	if p.phase == 1 {
		p.phase = 0
		return machine.Request(p.dst, 0, 1)
	}
	if p.done > 0 || p.phase == 0 && p.done == 0 && v.Now() > 0 {
		// A reply just unblocked us (except at the very first call).
		p.rounds = append(p.rounds, v.Cycle())
	}
	if p.done >= p.cycles {
		return machine.Halt()
	}
	p.done++
	p.phase = 1
	return machine.Compute(p.compute)
}

func (p *twoPhaseProg) Save(reuse any) any {
	s, _ := reuse.(*twoPhaseProg)
	if s == nil {
		s = new(twoPhaseProg)
	}
	rounds := s.rounds[:0]
	*s = *p
	s.rounds = append(rounds, p.rounds...)
	return s
}

func (p *twoPhaseProg) Restore(snapshot any) {
	s := snapshot.(*twoPhaseProg)
	rounds := p.rounds[:0]
	*p = *s
	p.rounds = append(rounds, s.rounds...)
}

// TestPingPongTimings checks the request/reply round trip against
// hand-computed cycle times: compute 5, wire 10, request service 2,
// reply service 1 gives a 23-cycle period.
func TestPingPongTimings(t *testing.T) {
	prog := &twoPhaseProg{dst: 1, compute: 5, cycles: 2}
	res, err := machine.Run(machine.Config{
		P:        2,
		Latency:  dist.NewDeterministic(10),
		Services: []dist.Distribution{dist.NewDeterministic(2), dist.NewDeterministic(1)},
		Programs: []machine.Program{prog, nil},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []machine.CycleInfo{
		{ReqSent: 5, ReqArrived: 15, ReqDone: 17, RepSent: 17, RepArrived: 27, RepDone: 28},
		{ReqSent: 33, ReqArrived: 43, ReqDone: 45, RepSent: 45, RepArrived: 55, RepDone: 56},
	}
	if len(prog.rounds) != len(want) {
		t.Fatalf("recorded %d rounds, want %d: %+v", len(prog.rounds), len(want), prog.rounds)
	}
	for i, w := range want {
		if prog.rounds[i] != w {
			t.Errorf("round %d = %+v, want %+v", i, prog.rounds[i], w)
		}
	}
	if res.Run.MaxTime != 56 {
		t.Errorf("MaxTime = %v, want 56", res.Run.MaxTime)
	}
	server := res.Nodes[1]
	if server.ReqArrivals != 2 {
		t.Errorf("server ReqArrivals = %d, want 2", server.ReqArrivals)
	}
	if got := server.ReqResponse.Mean(); got != 2 {
		t.Errorf("server Rq mean = %v, want 2 (no queueing)", got)
	}
	client := res.Nodes[0]
	if client.RepArrivals != 2 {
		t.Errorf("client RepArrivals = %d, want 2", client.RepArrivals)
	}
	if got := client.ThreadUtil * client.Elapsed; math.Abs(got-10) > 1e-9 {
		t.Errorf("client busy cycles = %v, want 10", got)
	}
}

// TestPreemptResume checks the interrupt model: an arriving handler
// preempts the thread, which resumes with its remaining work banked —
// against the protocol-processor variant, where it does not.
func TestPreemptResume(t *testing.T) {
	run := func(pp bool) float64 {
		// Node 0 computes 100 cycles starting at t=0. Node 1 fires one
		// request at t=0 that arrives at t=10 and needs 2 cycles of
		// service. Interrupt mode: the thread finishes at 102.
		worker := &twoPhaseProg{dst: 1, compute: 100, cycles: 1}
		pinger := &twoPhaseProg{dst: 0, compute: 0, cycles: 1}
		_, err := machine.Run(machine.Config{
			P:                 2,
			Latency:           dist.NewDeterministic(10),
			Services:          []dist.Distribution{dist.NewDeterministic(2), dist.NewDeterministic(0)},
			Programs:          []machine.Program{worker, pinger},
			ProtocolProcessor: pp,
			Seed:              1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The worker's round trip: request sent at 100 (interrupt mode:
		// 10 run + 2 handler + 90 run = sent at 102).
		return worker.rounds[0].ReqSent
	}
	if got := run(false); got != 102 {
		t.Errorf("interrupt mode: worker's request sent at %v, want 102 (10 + 2 handler + 90)", got)
	}
	if got := run(true); got != 100 {
		t.Errorf("protocol-processor mode: worker's request sent at %v, want 100 (no preemption)", got)
	}
}

// TestShardDeterminism runs a random client/server mesh under every
// core and checks byte-identical traces and identical measurements.
func TestShardDeterminism(t *testing.T) {
	build := func() machine.Config {
		const p = 8
		progs := make([]machine.Program, p)
		for i := 0; i < p; i++ {
			if i%2 == 0 {
				progs[i] = &meshProg{cycles: 30}
			}
		}
		return machine.Config{
			P:       p,
			Latency: dist.NewDeterministic(5),
			Services: []dist.Distribution{
				dist.NewExponential(3),
				dist.NewDeterministic(0.5),
			},
			Programs:     progs,
			Seed:         99,
			ResetStatsAt: 50,
		}
	}
	run := func(sync psim.Sync, jobs int) ([]byte, machine.Result) {
		cfg := build()
		cfg.Sync = sync
		cfg.Jobs = jobs
		var tr psim.Trace
		cfg.Trace = &tr
		res, err := machine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	wantTrace, wantRes := run(psim.SyncSeq, 1)
	if wantRes.Run.Events == 0 {
		t.Fatal("sequential run committed no events")
	}
	for _, tc := range []struct {
		name string
		sync psim.Sync
		jobs int
	}{
		{"cons/j1", psim.SyncCons, 1},
		{"cons/j8", psim.SyncCons, 8},
		{"opt/j1", psim.SyncOpt, 1},
		{"opt/j8", psim.SyncOpt, 8},
	} {
		gotTrace, gotRes := run(tc.sync, tc.jobs)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%s: trace differs from sequential (%d vs %d bytes)", tc.name, len(gotTrace), len(wantTrace))
			continue
		}
		for i := range wantRes.Nodes {
			if gotRes.Nodes[i] != wantRes.Nodes[i] {
				t.Errorf("%s: node %d stats differ:\n got %+v\nwant %+v", tc.name, i, gotRes.Nodes[i], wantRes.Nodes[i])
				break
			}
		}
		if a, b := gotRes.Aggregate(), wantRes.Aggregate(); a != b {
			t.Errorf("%s: aggregate stats differ:\n got %+v\nwant %+v", tc.name, a, b)
		}
	}
}

// meshProg computes a random amount and requests service from a random
// server (odd node), repeating for a fixed number of cycles.
type meshProg struct {
	cycles int
	done   int
	phase  int
}

func (p *meshProg) Next(v *machine.NodeView) machine.Action {
	if p.phase == 1 {
		p.phase = 0
		// Random odd destination other than self.
		servers := v.N() / 2
		dst := 2*v.Rand().Intn(servers) + 1
		return machine.Request(dst, 0, 1)
	}
	if p.done >= p.cycles {
		return machine.Halt()
	}
	p.done++
	p.phase = 1
	return machine.Compute(1 + 4*v.Rand().Float64())
}

func (p *meshProg) Save(reuse any) any {
	s, _ := reuse.(*meshProg)
	if s == nil {
		s = new(meshProg)
	}
	*s = *p
	return s
}
func (p *meshProg) Restore(sn any) { *p = *sn.(*meshProg) }

// TestConfigErrors exercises Run's validation.
func TestConfigErrors(t *testing.T) {
	lat := dist.NewDeterministic(1)
	cases := []struct {
		name string
		cfg  machine.Config
	}{
		{"no nodes", machine.Config{Latency: lat}},
		{"no latency", machine.Config{P: 2}},
		{"program count", machine.Config{P: 2, Latency: lat, Programs: []machine.Program{nil}}},
		{"nil service", machine.Config{P: 2, Latency: lat, Services: []dist.Distribution{nil}}},
	}
	for _, tc := range cases {
		if _, err := machine.Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// replyArrival runs the link-occupancy scenario on p nodes and returns
// when the reply to node p-1's request arrived back there. Node p-1
// requests node 0 at t=0 (arrival 0+30+40 = 70). Node 0 computes 60
// cycles, then requests node 1, occupying link 0->1 over [60, 90];
// at 75 it finishes serving node p-1's request and replies on link
// 0->(p-1).
func replyArrival(t *testing.T, p int) float64 {
	t.Helper()
	progs := make([]machine.Program, p)
	progs[0] = &twoPhaseProg{dst: 1, compute: 60, cycles: 1}
	client := &twoPhaseProg{dst: 0, compute: 0, cycles: 1}
	progs[p-1] = client
	for _, sync := range []psim.Sync{psim.SyncSeq, psim.SyncCons} {
		client.rounds, client.done, client.phase = nil, 0, 0
		*progs[0].(*twoPhaseProg) = twoPhaseProg{dst: 1, compute: 60, cycles: 1}
		if _, err := machine.Run(machine.Config{
			P:             p,
			Latency:       dist.NewDeterministic(40),
			Services:      []dist.Distribution{dist.NewDeterministic(5), dist.NewDeterministic(1)},
			Programs:      progs,
			LinkOccupancy: 30,
			Sync:          sync,
			Jobs:          2,
			Seed:          1,
		}); err != nil {
			t.Fatal(err)
		}
		if len(client.rounds) != 1 {
			t.Fatalf("%v: client finished %d rounds, want 1", sync, len(client.rounds))
		}
	}
	return client.rounds[0].RepArrived
}

// TestLinkOccupancySerializesPairTraffic: the reply shares link 0->1
// with node 0's own request, so it waits for the link until 90 and
// arrives at 90+30+40 = 160 instead of 75+30+40 = 145.
func TestLinkOccupancySerializesPairTraffic(t *testing.T) {
	if got := replyArrival(t, 2); got != 160 {
		t.Errorf("reply arrived at %v, want 160 (serialized behind the request on link 0->1)", got)
	}
}

// TestLinkOccupancyIndependentLinks: with a third node the reply uses
// link 0->2, which node 0's request to node 1 does not occupy.
func TestLinkOccupancyIndependentLinks(t *testing.T) {
	if got := replyArrival(t, 3); got != 145 {
		t.Errorf("reply arrived at %v, want 145 (no cross-link serialization)", got)
	}
}

// obsCount counts observations by kind.
type obsCount map[machine.ObsKind]int

func (c obsCount) Observe(o machine.Observation) { c[o.Kind]++ }

// TestFiniteNIQueueNacksAndRetries: capacity 1 and a burst of three
// requests at t=10. The later two bounce and retry until served, the
// queue never holds more than one message, and each message is
// reported sent and arrived exactly once.
func TestFiniteNIQueueNacksAndRetries(t *testing.T) {
	build := func(sync psim.Sync, obs machine.Observer) (machine.Config, []*twoPhaseProg) {
		clients := make([]*twoPhaseProg, 3)
		progs := make([]machine.Program, 4)
		for i := range clients {
			clients[i] = &twoPhaseProg{dst: 3, compute: 0, cycles: 1}
			progs[i] = clients[i]
		}
		return machine.Config{
			P:          4,
			Latency:    dist.NewDeterministic(10),
			Services:   []dist.Distribution{dist.NewDeterministic(100), dist.NewDeterministic(1)},
			Programs:   progs,
			NIQueueCap: 1,
			RetryDelay: 25,
			Sync:       sync,
			Jobs:       2,
			Observer:   obs,
			Seed:       1,
		}, clients
	}
	obs := obsCount{}
	cfg, clients := build(psim.SyncSeq, obs)
	res, err := machine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if len(c.rounds) != 1 {
			t.Fatalf("client %d finished %d rounds, want 1", i, len(c.rounds))
		}
	}
	if res.Nacks == 0 {
		t.Fatal("expected NACKs with capacity 1 and a burst of 3")
	}
	if got := res.Nodes[3].ReqArrivals; got != 3 {
		t.Errorf("server accepted %d requests, want 3", got)
	}
	if got := res.Nodes[3].MaxQueueDepth; got > 1 {
		t.Errorf("queue depth %d exceeded capacity 1", got)
	}
	if obs[machine.ObsSent] != 6 || obs[machine.ObsArrived] != 6 || obs[machine.ObsHandler] != 6 {
		t.Errorf("observed %d sends, %d arrivals, %d handlers; want 6 each (3 requests, 3 replies)",
			obs[machine.ObsSent], obs[machine.ObsArrived], obs[machine.ObsHandler])
	}
	cons, _ := build(psim.SyncCons, nil)
	consRes, err := machine.Run(cons)
	if err != nil {
		t.Fatal(err)
	}
	if consRes.Nacks != res.Nacks || consRes.Run.MaxTime != res.Run.MaxTime {
		t.Errorf("cons: %d NACKs ending at %v, seq: %d ending at %v",
			consRes.Nacks, consRes.Run.MaxTime, res.Nacks, res.Run.MaxTime)
	}
}

// meshTrace runs the random client/server mesh of TestShardDeterminism
// with mutate applied and returns its committed trace and NACK count.
func meshTrace(t *testing.T, mutate func(*machine.Config)) ([]byte, int64) {
	t.Helper()
	progs := make([]machine.Program, 8)
	for i := 0; i < 8; i += 2 {
		progs[i] = &meshProg{cycles: 30}
	}
	var tr psim.Trace
	cfg := machine.Config{
		P:        8,
		Latency:  dist.NewDeterministic(5),
		Services: []dist.Distribution{dist.NewExponential(3), dist.NewDeterministic(0.5)},
		Programs: progs,
		Seed:     99,
		Trace:    &tr,
	}
	mutate(&cfg)
	res, err := machine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Nacks
}

// TestFiniteQueueLargeCapMatchesUnbounded: a cap no queue reaches
// changes nothing.
func TestFiniteQueueLargeCapMatchesUnbounded(t *testing.T) {
	base, _ := meshTrace(t, func(*machine.Config) {})
	capped, nacks := meshTrace(t, func(c *machine.Config) { c.NIQueueCap, c.RetryDelay = 64, 50 })
	if nacks != 0 {
		t.Fatalf("cap 64 produced %d NACKs", nacks)
	}
	if !bytes.Equal(base, capped) {
		t.Fatal("an unreached queue cap changed the committed trace")
	}
}

// TestZeroLinkOccupancyUnchanged: extras set to their zero values give
// the paper's machine, event for event.
func TestZeroLinkOccupancyUnchanged(t *testing.T) {
	base, _ := meshTrace(t, func(*machine.Config) {})
	zero, _ := meshTrace(t, func(c *machine.Config) { c.LinkOccupancy, c.NIQueueCap, c.RetryDelay = 0, 0, 0 })
	if !bytes.Equal(base, zero) {
		t.Fatal("zero-valued extras changed the committed trace")
	}
}

// TestPairLatencyOverridesNetLatency: each trip takes exactly its
// pair's wire time, so the contention-free cycle is W + lat(0->1) + So
// + lat(1->0) + So = 100+15+50+25+50 = 240, on both cores. The
// lookahead is the smaller pair latency, not Latency's 999.
func TestPairLatencyOverridesNetLatency(t *testing.T) {
	for _, sync := range []psim.Sync{psim.SyncSeq, psim.SyncCons, psim.SyncOpt} {
		prog := &twoPhaseProg{dst: 1, compute: 100, cycles: 3}
		if _, err := machine.Run(machine.Config{
			P:        2,
			Latency:  dist.NewDeterministic(999),
			Services: []dist.Distribution{dist.NewDeterministic(50), dist.NewDeterministic(50)},
			PairLatency: func(src, dst int) float64 {
				if src == 0 {
					return 15
				}
				return 25
			},
			Programs: []machine.Program{prog, nil},
			Sync:     sync,
			Jobs:     2,
			Seed:     1,
		}); err != nil {
			t.Fatal(err)
		}
		for i, r := range prog.rounds {
			if want := 240 * float64(i+1); r.RepDone != want {
				t.Errorf("%v: round %d ended at %v, want %v", sync, i, r.RepDone, want)
			}
		}
	}
}

// TestExtrasRejected: a pair latency must be positive and finite, and
// the opt core refuses the stateful extras and the Observer, which
// also needs seq.
func TestExtrasRejected(t *testing.T) {
	lat := dist.NewDeterministic(10)
	pair := func(v float64) func(int, int) float64 { return func(int, int) float64 { return v } }
	cases := []struct {
		name string
		cfg  machine.Config
	}{
		{"negative pair latency", machine.Config{P: 2, Latency: lat, PairLatency: pair(-1)}},
		{"zero pair latency", machine.Config{P: 2, Latency: lat, PairLatency: pair(0)}},
		{"NaN pair latency", machine.Config{P: 2, Latency: lat, PairLatency: pair(math.NaN())}},
		{"negative link occupancy", machine.Config{P: 2, Latency: lat, LinkOccupancy: -1}},
		{"NaN retry delay", machine.Config{P: 2, Latency: lat, RetryDelay: math.NaN()}},
		{"negative queue cap", machine.Config{P: 2, Latency: lat, NIQueueCap: -1}},
		{"opt link occupancy", machine.Config{P: 2, Latency: lat, LinkOccupancy: 1, Sync: psim.SyncOpt}},
		{"opt queue cap", machine.Config{P: 2, Latency: lat, NIQueueCap: 4, Sync: psim.SyncOpt}},
		{"opt observer", machine.Config{P: 2, Latency: lat, Observer: obsCount{}, Sync: psim.SyncOpt}},
		{"cons observer", machine.Config{P: 2, Latency: lat, Observer: obsCount{}, Sync: psim.SyncCons}},
	}
	for _, tc := range cases {
		if _, err := machine.Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted it", tc.name)
		}
	}
}
