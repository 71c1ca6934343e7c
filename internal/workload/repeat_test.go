package workload

import (
	"testing"

	"repro/internal/detguard"
	"repro/internal/dist"
)

// TestOutputsRepeat renders detguard.Runs times each exported output
// the ParContract tests do not already run on every core (they pin each
// simulation's trace and compare its result across six runs): the
// replicated runs, the hot-spot visit matrix, the pattern names and the
// exchange's round means. Each must be byte-identical every time.
func TestOutputsRepeat(t *testing.T) {
	at := stdAllToAll(256, 11)
	at.P, at.WarmupCycles, at.MeasureCycles = 8, 20, 60
	at.Pattern = HotspotPattern{Hot: 3, Bias: 0.3}
	wp := stdWorkpile(4, 5)
	wp.P, wp.WarmupTime, wp.MeasureTime = 12, 10_000, 100_000
	ex := exCfg(6, 12, 5, dist.NewExponential(25), true, 3)
	detguard.Check(t, []detguard.Row{
		{Name: "RunAllToAllN", Render: detguard.Value(func() (any, error) { return RunAllToAllN(at, 4, 2) })},
		{Name: "RunWorkpileN", Render: detguard.Value(func() (any, error) { return RunWorkpileN(wp, 4, 2) })},
		{Name: "HotspotVisits", Render: detguard.Value(func() (any, error) { return HotspotVisits(8, 3, 0.3), nil })},
		{Name: "Patterns", Render: detguard.Value(func() (any, error) {
			return []string{UniformPattern{}.String(), RingPattern{}.String(), ShiftPattern{Offset: 3}.String(),
				HotspotPattern{Hot: 3, Bias: 0.3}.String()}, nil
		})},
		{Name: "ExchangeRounds", Render: detguard.Value(func() (any, error) {
			r, err := RunExchange(ex)
			return []float64{r.MeanRoundTime(2, 12), r.MeanDataTime(2, 12)}, err
		})},
	})
}
