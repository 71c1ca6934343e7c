package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/psim"
)

// BenchmarkParScenarios runs the two P=1024 scenarios of perfbench's
// sim-par workload (all-to-all and work-pile, same parameters) on every
// psim core at jobs 1 and 2. Each op is one full run; it reports the
// committed events per second, and the synchronization rounds and
// optimistic rollbacks per run, beside ns/op, B/op and allocs/op. The committed results are the same
// on every row (the determinism contract), so rows compare pure speed:
//
//	go test -run XXX -bench BenchmarkParScenarios -benchtime 20x ./internal/workload/
func BenchmarkParScenarios(b *testing.B) {
	const p = 1024
	ps, err := core.OptimalServersInt(core.ClientServerParams{P: p, Ps: 1, W: 1500, St: 40, So: 131})
	if err != nil {
		b.Fatal(err)
	}
	scenarios := []struct {
		name string
		run  func(par *ParSim) error
	}{
		{"alltoall", func(par *ParSim) error {
			_, err := RunAllToAll(AllToAllConfig{
				P: p, Work: dist.NewDeterministic(1000), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(200), WarmupCycles: 3, MeasureCycles: 8, Seed: 1, Par: par,
			})
			return err
		}},
		{"workpile", func(par *ParSim) error {
			_, err := RunWorkpile(WorkpileConfig{
				P: p, Ps: ps, Chunk: dist.NewExponential(1500), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(131), WarmupTime: 3_000, MeasureTime: 20_000, Seed: 1, Par: par,
			})
			return err
		}},
	}
	cores := []struct {
		sync string
		jobs int
	}{
		{"seq", 1},
		{"cons", 1},
		{"cons", 2},
		{"opt", 1},
		{"opt", 2},
	}
	for _, sc := range scenarios {
		for _, c := range cores {
			name := fmt.Sprintf("%s/%s", sc.name, c.sync)
			if c.sync != "seq" {
				name += fmt.Sprintf("/j%d", c.jobs)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var events, rounds, rollbacks uint64
				for i := 0; i < b.N; i++ {
					var rs psim.RunStats
					if err := sc.run(&ParSim{Sync: c.sync, Jobs: c.jobs, Stats: &rs}); err != nil {
						b.Fatal(err)
					}
					events += rs.Events
					rounds += rs.Rounds
					rollbacks += rs.Rollbacks
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
				b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks")
			})
		}
	}
}
