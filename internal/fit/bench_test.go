package fit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// iterCounter is a SolveObserver that counts solves and the map
// evaluations they took.
type iterCounter struct{ solves, iters int }

func (c *iterCounter) BeginSolve(string) func(obs.SolveStats) {
	return func(s obs.SolveStats) {
		c.solves++
		c.iters += s.Iters
	}
}

// BenchmarkFitAllToAll fits (St, So) to a five-point noiseless sweep:
// one Nelder–Mead run of several hundred all-to-all solves at one C².
// It reports the solves per fit and the mean map evaluations per solve.
func BenchmarkFitAllToAll(b *testing.B) {
	var sweep []Observation
	for _, w := range []float64{0, 32, 128, 512, 2048} {
		res, err := core.AllToAll(core.Params{P: 32, W: w, St: 40, So: 200})
		if err != nil {
			b.Fatal(err)
		}
		sweep = append(sweep, Observation{W: w, R: res.R, Rq: res.Rq})
	}
	var count iterCounter
	if _, err := AllToAllObserved(sweep, 32, 0, &count); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllToAll(sweep, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count.solves), "solves/op")
	b.ReportMetric(float64(count.iters)/float64(count.solves), "iters/solve")
}
