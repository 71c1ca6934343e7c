package psim

import (
	"fmt"
	"testing"
)

// benchLP is the benchmark workload: a deterministic closed mesh where
// every LP, on each delivery, forwards one event to the next LP exactly
// one lookahead later and schedules local think time for itself. The
// event population stays constant at one per LP, so committed events
// scale linearly with P and simulated time — a clean events/sec yard-
// stick for comparing cores.
type benchLP struct {
	hops uint64
}

func (l *benchLP) Start(c *Ctx) {
	c.Send(c.Self(), 0, 1, Msg{})
}

func (l *benchLP) Handle(c *Ctx, ev *Event) {
	l.hops++
	next := (c.Self() + 1) % c.N()
	if next == c.Self() {
		c.Send(next, 1.5, 1, Msg{})
		return
	}
	c.Send(next, 1, 1, Msg{})
}

func (l *benchLP) Save(any) any     { return l.hops }
func (l *benchLP) Restore(snap any) { l.hops = snap.(uint64) }

// BenchmarkCores runs the mesh at P in {64, 256, 1024} under every
// core/job combination and reports events/sec. BENCH_psim.json records
// a measured sweep of these numbers.
func BenchmarkCores(b *testing.B) {
	cases := []struct {
		name string
		sync Sync
		jobs int
	}{
		{"seq", SyncSeq, 1},
		{"cons/j1", SyncCons, 1},
		{"cons/j2", SyncCons, 2},
		{"cons/j8", SyncCons, 8},
		{"opt/j1", SyncOpt, 1},
		{"opt/j2", SyncOpt, 2},
		{"opt/j8", SyncOpt, 8},
	}
	for _, p := range []int{64, 256, 1024} {
		// Scale simulated time so every configuration commits about the
		// same number of events regardless of P.
		until := float64(131072 / p)
		for _, tc := range cases {
			b.Run(fmt.Sprintf("P%d/%s", p, tc.name), func(b *testing.B) {
				var events uint64
				for i := 0; i < b.N; i++ {
					lps := make([]LP, p)
					for j := range lps {
						lps[j] = &benchLP{}
					}
					rs, err := Run(Config{
						LPs:       lps,
						Lookahead: 1,
						Sync:      tc.sync,
						Jobs:      tc.jobs,
						Seed:      1,
						Until:     until,
					})
					if err != nil {
						b.Fatal(err)
					}
					events += rs.Events
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
