package obs

import (
	"io"
	"testing"
	"time"

	"repro/internal/detguard"
)

// TestOutputsRepeat renders a ConvRecorder's exports, and the metrics
// it mirrors into a registry, detguard.Runs times; each must be
// byte-identical. Six solvers record, some with errors and guard trips,
// so the per-solver instruments are resolved in a map of six entries.
func TestOutputsRepeat(t *testing.T) {
	record := func() (*ConvRecorder, *Registry) {
		fake := fakeClk()
		reg := NewRegistry()
		c := NewConvRecorder(16, fake, reg)
		for i, solver := range []string{"lock", "alltoall", "general", "mva.bard", "lockfree", "clientserver"} {
			for j := 0; j < 3; j++ {
				done := c.BeginSolve(solver)
				fake.Advance(time.Duration(10*i+j) * time.Microsecond)
				s := SolveStats{Iters: 5 + i + j, Residual: 1e-12 * float64(j+1), Converged: j < 2, GuardTrips: i % 2, MaxUtil: 0.1 * float64(i)}
				if j == 2 {
					s.Err = "no convergence"
				}
				done(s)
			}
		}
		return c, reg
	}
	detguard.Check(t, []detguard.Row{
		{Name: "ConvRecorder.WriteJSON", Render: func(w io.Writer) error { c, _ := record(); return c.WriteJSON(w) }},
		{Name: "ConvRecorder.WriteCSV", Render: func(w io.Writer) error { c, _ := record(); return c.WriteCSV(w) }},
		{Name: "ConvRecorder metrics", Render: func(w io.Writer) error { _, reg := record(); return reg.WritePrometheus(w) }},
	})
}
