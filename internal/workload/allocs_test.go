package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/allocguard"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/psim"
)

// maxAllocsPerEvent bounds the extra allocations per extra committed
// event between a run and one four times as long. A run allocates its
// machine, queues and tallies up front, and its queues and logs grow to
// their steady-state size early; after that the loop allocates nothing,
// so the ratio is near zero. One allocation per event, per handler call
// or per conservative window would make it 1 or more.
const maxAllocsPerEvent = 0.01

// TestSteadyStateAllocs guards the parallel simulator's steady state by
// measurement: psim's sequential dispatch loop (runSeq) and the
// conservative core's per-window drain (drainWindow), with the shard
// machine and workload programs they dispatch to. Each row runs a P=64
// scenario on one core to a horizon and to four times it.
//
// Allocations are read from runtime.MemStats rather than with
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and so would run the
// two-worker rows on one worker.
func TestSteadyStateAllocs(t *testing.T) {
	if allocguard.Race {
		t.Skip("the race detector changes allocation counts")
	}
	const p = 64
	ps, err := core.OptimalServersInt(core.ClientServerParams{P: p, Ps: 1, W: 1500, St: 40, So: 131})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name string
		// run simulates to horizon h (1 or 4) on par.
		run func(par *ParSim, h int) error
	}{
		{"alltoall", func(par *ParSim, h int) error {
			_, err := RunAllToAll(AllToAllConfig{
				P: p, Work: dist.NewDeterministic(1000), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(200), WarmupCycles: 3, MeasureCycles: 32 * h, Seed: 1, Par: par,
			})
			return err
		}},
		{"workpile", func(par *ParSim, h int) error {
			_, err := RunWorkpile(WorkpileConfig{
				P: p, Ps: ps, Chunk: dist.NewExponential(1500), Latency: dist.NewDeterministic(40),
				Service: dist.NewDeterministic(131), WarmupTime: 3_000, MeasureTime: 20_000 * float64(h), Seed: 1, Par: par,
			})
			return err
		}},
	}
	cores := []struct {
		sync string
		jobs int
	}{{"seq", 1}, {"cons", 1}, {"cons", 2}}
	for _, sc := range scenarios {
		for _, c := range cores {
			t.Run(fmt.Sprintf("%s/%s/j%d", sc.name, c.sync, c.jobs), func(t *testing.T) {
				// measure returns the mean allocations and committed
				// events of a run to horizon h, after one warm-up run.
				measure := func(h int) (allocs, events float64) {
					const runs = 3
					var rs psim.RunStats
					par := &ParSim{Sync: c.sync, Jobs: c.jobs, Stats: &rs}
					if err := sc.run(par, h); err != nil {
						t.Fatal(err)
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < runs; i++ {
						if err := sc.run(par, h); err != nil {
							t.Fatal(err)
						}
					}
					runtime.ReadMemStats(&after)
					return float64(after.Mallocs-before.Mallocs) / runs, float64(rs.Events)
				}
				a1, e1 := measure(1)
				a4, e4 := measure(4)
				perEvent := (a4 - a1) / (e4 - e1)
				t.Logf("%.0f allocations at %.0f events, %.0f at %.0f: %.4f per extra event", a1, e1, a4, e4, perEvent)
				if !(perEvent < maxAllocsPerEvent) {
					t.Errorf("%.4f extra allocations per extra committed event, want below %v", perEvent, maxAllocsPerEvent)
				}
			})
		}
	}
}
