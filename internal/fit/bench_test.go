package fit

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkFitAllToAll fits (St, So) to a five-point noiseless sweep:
// one Nelder–Mead run of several hundred all-to-all solves at one C².
func BenchmarkFitAllToAll(b *testing.B) {
	var obs []Observation
	for _, w := range []float64{0, 32, 128, 512, 2048} {
		res, err := core.AllToAll(core.Params{P: 32, W: w, St: 40, So: 200})
		if err != nil {
			b.Fatal(err)
		}
		obs = append(obs, Observation{W: w, R: res.R, Rq: res.Rq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllToAll(obs, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
}
