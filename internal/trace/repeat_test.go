package trace

import (
	"io"
	"testing"
	"time"

	"repro/internal/detguard"
)

// TestOutputsRepeat renders both trace writers detguard.Runs times;
// each rendering must be byte-identical. The simulation trace spans
// eight nodes, so its per-node metadata passes through a map of eight
// pids; the span log has four overlapping lanes with argument maps.
func TestOutputsRepeat(t *testing.T) {
	detguard.Check(t, []detguard.Row{
		{Name: "Tracer.WriteJSON", Render: func(w io.Writer) error {
			tr := &Tracer{}
			runShard(t, tr, 8, 30)
			return tr.WriteJSON(w)
		}},
		{Name: "Spans.WriteJSON", Render: func(w io.Writer) error {
			fake := fakeClk()
			s := NewSpans(fake)
			var ends []func(map[string]any)
			for i := 0; i < 4; i++ {
				ends = append(ends, s.Start("job", "solve"))
				fake.Advance(time.Duration(i+1) * time.Microsecond)
			}
			for i, end := range ends {
				end(map[string]any{"index": i, "ok": i%2 == 0, "point": float64(i) / 3, "name": "p"})
			}
			return s.WriteJSON(w)
		}},
	})
}
