package stats

import (
	"testing"

	"repro/internal/detguard"
)

// TestOutputsRepeat feeds every exported estimator the same series
// detguard.Runs times; each rendering of the estimates must be
// byte-identical.
func TestOutputsRepeat(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64((i*7919)%101) + 0.25*float64(i%7)
	}
	detguard.Check(t, []detguard.Row{
		{Name: "Estimators", Render: detguard.Value(func() (any, error) {
			var a, b Tally
			var tw TimeWeighted
			bm := NewBatchMeans(20)
			for i, x := range xs {
				a.Add(x)
				if i%3 == 0 {
					b.Add(x)
				}
				tw.Set(float64(i), x)
				bm.Add(x)
			}
			a.Merge(&b)
			tw.Advance(float64(len(xs)))
			return []any{
				a.N(), a.Mean(), a.Variance(), a.StdDev(), a.SCV(), a.Min(), a.Max(), a.Sum(), a.HalfWidth95(), a.String(),
				tw.Mean(), tw.Value(), tw.Elapsed(),
				bm.Batches(), bm.Mean(), bm.HalfWidth95(),
				RelErr(a.Mean(), 50), AutoCorr(xs, 3), SuggestBatchSize(xs, 0.1, 5, 100),
			}, nil
		})},
	})
}
