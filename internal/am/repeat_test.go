package am

import (
	"testing"

	"repro/internal/detguard"
	"repro/internal/dist"
)

// TestOutputsRepeat renders every exported result of the package
// detguard.Runs times and requires identical bytes each time. The
// collectives run on 13 nodes with exponential handlers, so the
// schedules are uneven and every node's draws matter.
func TestOutputsRepeat(t *testing.T) {
	cfg := detConfig(13, 10, 40, 25)
	cfg.Handler = dist.NewExponential(25)
	values := make([]float64, cfg.P)
	for i := range values {
		values[i] = 1 / float64(i+1)
	}
	detguard.Check(t, []detguard.Row{
		{Name: "Schedule", Render: detguard.Value(func() (any, error) {
			finish, informed, parent := Schedule(13, 10, 40, 25)
			return []any{finish, informed, parent}, nil
		})},
		{Name: "Broadcast", Render: detguard.Value(func() (any, error) { return Broadcast(cfg) })},
		{Name: "Reduce", Render: detguard.Value(func() (any, error) { return Reduce(cfg, values) })},
		{Name: "Barrier", Render: detguard.Value(func() (any, error) { return Barrier(cfg, 3) })},
		{Name: "AllReduce", Render: detguard.Value(func() (any, error) { return AllReduce(cfg, values) })},
	})
}
