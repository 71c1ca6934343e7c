package shard_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine/shard"
	"repro/internal/psim"
)

// twoPhaseProg alternates Compute and Request explicitly.
type twoPhaseProg struct {
	dst     int
	compute float64
	cycles  int

	phase  int // 0: compute next, 1: request next
	done   int
	rounds []shard.CycleInfo
}

func (p *twoPhaseProg) Next(v *shard.NodeView) shard.Action {
	if p.phase == 1 {
		p.phase = 0
		return shard.Request(p.dst, 0, 1)
	}
	if p.done > 0 || p.phase == 0 && p.done == 0 && v.Now() > 0 {
		// A reply just unblocked us (except at the very first call).
		p.rounds = append(p.rounds, v.Cycle())
	}
	if p.done >= p.cycles {
		return shard.Halt()
	}
	p.done++
	p.phase = 1
	return shard.Compute(p.compute)
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
	res, err := shard.Run(shard.Config{
		P:        2,
		Latency:  dist.NewDeterministic(10),
		Services: []dist.Distribution{dist.NewDeterministic(2), dist.NewDeterministic(1)},
		Programs: []shard.Program{prog, nil},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []shard.CycleInfo{
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
		_, err := shard.Run(shard.Config{
			P:                 2,
			Latency:           dist.NewDeterministic(10),
			Services:          []dist.Distribution{dist.NewDeterministic(2), dist.NewDeterministic(0)},
			Programs:          []shard.Program{worker, pinger},
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
	build := func() shard.Config {
		const p = 8
		progs := make([]shard.Program, p)
		for i := 0; i < p; i++ {
			if i%2 == 0 {
				progs[i] = &meshProg{cycles: 30}
			}
		}
		return shard.Config{
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
	run := func(sync psim.Sync, jobs int) ([]byte, shard.Result) {
		cfg := build()
		cfg.Sync = sync
		cfg.Jobs = jobs
		var tr psim.Trace
		cfg.Trace = &tr
		res, err := shard.Run(cfg)
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

func (p *meshProg) Next(v *shard.NodeView) shard.Action {
	if p.phase == 1 {
		p.phase = 0
		// Random odd destination other than self.
		servers := v.N() / 2
		dst := 2*v.Rand().Intn(servers) + 1
		return shard.Request(dst, 0, 1)
	}
	if p.done >= p.cycles {
		return shard.Halt()
	}
	p.done++
	p.phase = 1
	return shard.Compute(1 + 4*v.Rand().Float64())
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
		cfg  shard.Config
	}{
		{"no nodes", shard.Config{Latency: lat}},
		{"no latency", shard.Config{P: 2}},
		{"program count", shard.Config{P: 2, Latency: lat, Programs: []shard.Program{nil}}},
		{"nil service", shard.Config{P: 2, Latency: lat, Services: []dist.Distribution{nil}}},
	}
	for _, tc := range cases {
		if _, err := shard.Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}
