package mva

import "testing"

// benchWorkpile is the Fig. 6-2 work-pile split as a closed network:
// 24 clients, 8 servers.
var benchWorkpile = WorkpileNetwork(24, 8, 1500, 40, 131)

func BenchmarkBard(b *testing.B) {
	b.ReportAllocs()
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = Bard(benchWorkpile, 24); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

func BenchmarkSchweitzer(b *testing.B) {
	b.ReportAllocs()
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = Schweitzer(benchWorkpile, 24); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}

// BenchmarkMultiBard solves a two-class work-pile (12 clients of each
// chunk size, 8 servers): 18 unknown queue lengths.
func BenchmarkMultiBard(b *testing.B) {
	p, err := MultiWorkpileNetwork([]int{12, 12}, 8, []float64{500, 3000}, 40, 131)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var res MultiResult
	for i := 0; i < b.N; i++ {
		if res, err = MultiBard(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solve.Iters), "iters/op")
}
