package mva

import (
	"io"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detguard"
	"repro/internal/obs"
)

// observed renders a solve reported to a fresh ConvRecorder: the
// result, then the recorder's CSV.
func observed(solve func(o obs.SolveObserver) (any, error)) func(w io.Writer) error {
	return func(w io.Writer) error {
		rec := obs.NewConvRecorder(8, clock.NewFake(time.Unix(0, 0)), nil)
		if err := detguard.Value(func() (any, error) { return solve(rec) })(w); err != nil {
			return err
		}
		return rec.WriteCSV(w)
	}
}

// TestOutputsRepeat renders every exported result of the package
// detguard.Runs times and requires identical bytes each time. The
// multiclass network has four classes of unequal demand at five
// centers, so a sum over classes or centers taken in map order would
// move the last bits of X and Q.
func TestOutputsRepeat(t *testing.T) {
	single := WorkpileNetwork(24, 4, 1500, 40, 200)
	multi, err := MultiWorkpileNetwork([]int{3, 2, 2, 1}, 4, []float64{1500, 700, 3000, 400}, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Spread the per-server demands so no two sums coincide.
	for c, row := range multi.Demand {
		for k := 1; k < len(row); k++ {
			row[k] *= 1 + 0.1*float64(c) + 0.03*float64(k)
		}
	}
	detguard.Check(t, []detguard.Row{
		{Name: "Networks", Render: detguard.Value(func() (any, error) {
			m, err := MultiWorkpileNetwork([]int{3, 2, 2, 1}, 4, []float64{1500, 700, 3000, 400}, 40, 200)
			return []any{WorkpileNetwork(24, 4, 1500, 40, 200), m, Queueing.String(), Delay.String()}, err
		})},
		{Name: "Exact", Render: detguard.Value(func() (any, error) { return Exact(single, 24) })},
		{Name: "Bard", Render: detguard.Value(func() (any, error) { return Bard(single, 24) })},
		{Name: "BardObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return BardObserved(single, 24, o) })},
		{Name: "Schweitzer", Render: detguard.Value(func() (any, error) { return Schweitzer(single, 24) })},
		{Name: "SchweitzerObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return SchweitzerObserved(single, 24, o) })},
		{Name: "MultiExact", Render: detguard.Value(func() (any, error) { return MultiExact(multi) })},
		{Name: "MultiBard", Render: detguard.Value(func() (any, error) { return MultiBard(multi) })},
		{Name: "MultiBardObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return MultiBardObserved(multi, o) })},
		{Name: "MultiSchweitzer", Render: detguard.Value(func() (any, error) { return MultiSchweitzer(multi) })},
		{Name: "MultiSchweitzerObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return MultiSchweitzerObserved(multi, o) })},
	})
}
