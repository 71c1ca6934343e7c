package fit

import (
	"math"
	"testing"
)

// FuzzFitAllToAll: on any three observations, AllToAll either returns
// CheckAllToAll's error or a fit that is a bounded local minimum of its
// own objective: finite, St ≥ 0 and So > 0; its RMSE the residual
// recomputed at the returned point; its loss no higher than at the
// start, nor (first-order optimality) at any feasible ±1e-4 relative
// move of one coordinate. A run that ends at the least-squares kernel's
// step cap (numeric.ErrNoConvergence) fails the target.
func FuzzFitAllToAll(f *testing.F) {
	// cmd/lopc-fit's golden sweep, three of its points.
	f.Add(16, 0.0, 0.0, 943.0, 0.0, 512.0, 1431.0, 0.0, 2048.0, 2952.0, 0.0)
	// A serve-cold draw with Rq (St is identified) and the first one
	// whose best fit puts St on its bound.
	obs := serveColdDraw(f, 1)
	f.Add(32, 0.0, obs[0].W, obs[0].R, obs[0].Rq, obs[1].W, obs[1].R, obs[1].Rq, obs[3].W, obs[3].R, obs[3].Rq)
	obs = serveColdDraw(f, 133)
	f.Add(32, 0.0, obs[0].W, obs[0].R, obs[0].Rq, obs[1].W, obs[1].R, obs[1].Rq, obs[3].W, obs[3].R, obs[3].Rq)
	f.Add(2, 1.5, 0.0, 10.0, 3.0, 1.0, 12.0, 3.0, 5.0, 20.0, 4.0)                  // the smallest machine
	f.Add(64, 0.5, 100.0, 50.0, 0.0, 200.0, 150.0, 0.0, 400.0, 300.0, 0.0)         // R < W: no overhead to seed from
	f.Add(32, 0.0, 1e6, 1e6+500, 0.0, 1e6, 1e6+510, 0.0, 1e6, 1e6+490, 0.0)        // one W, St and So not separable
	f.Add(16, 0.0, 100.0, 100.0+1e-13, 0.0, 200.0, 900.0, 0.0, 400.0, 1300.0, 0.0) // overhead below So's bound
	f.Add(1, 0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 2.0, 3.0, 0.0)                     // rejected: P < 2
	f.Add(8, math.NaN(), 0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 2.0, 3.0, 0.0)              // rejected: NaN C²
	f.Fuzz(func(t *testing.T, p int, c2, w0, r0, rq0, w1, r1, rq1, w2, r2, rq2 float64) {
		obs := []Observation{{W: w0, R: r0, Rq: rq0}, {W: w1, R: r1, Rq: rq1}, {W: w2, R: r2, Rq: rq2}}
		res, err := AllToAll(obs, p, c2)
		if checkErr := CheckAllToAll(obs, p, c2); checkErr != nil {
			if err == nil || err.Error() != checkErr.Error() {
				t.Fatalf("AllToAll(%+v, %d, %v) error %v, want CheckAllToAll's %v", obs, p, c2, err, checkErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("AllToAll(%+v, %d, %v): %v", obs, p, c2, err)
		}
		x := []float64{res.St, res.So}
		for _, v := range []float64{res.St, res.So, res.RMSE, res.RelRMSE} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite fit %+v for %+v", res, obs)
			}
		}
		if !(res.St >= 0) || !(res.So > 0) {
			t.Fatalf("fit %+v outside St ≥ 0, So > 0 for %+v", res, obs)
		}
		lossAt := allToAllLoss(obs, p, c2)
		loss := lossAt(x)
		meanR := (r0 + r1 + r2) / 3
		// The solver's answer is accurate far below its 1e-10
		// tolerance, but a residual near zero is the difference of two
		// nearly equal R, so the comparison gets an absolute floor at
		// 1e-12 of the cycle time.
		if rmse := math.Sqrt(loss / 3); math.Abs(res.RMSE-rmse) > 1e-9*rmse+1e-12*meanR {
			t.Fatalf("RMSE %v, recomputed %v at %v for %+v", res.RMSE, rmse, x, obs)
		}
		notAbove := func(what string, y []float64) {
			t.Helper()
			if l := lossAt(y); !math.IsInf(l, 1) && loss > l*(1+1e-9)+1e-24*meanR*meanR {
				t.Fatalf("loss %.15g at the fit %v, %.15g at %s %v for %+v", loss, x, l, what, y, obs)
			}
		}
		minOverhead := math.Min(r0-w0, math.Min(r1-w1, r2-w2))
		if minOverhead <= 0 {
			minOverhead = meanR * 0.1
		}
		notAbove("the start", []float64{minOverhead / 4, math.Max(minOverhead/4, 1e-12*meanR)})
		for j := range x {
			for _, s := range []float64{1 + 1e-4, 1 - 1e-4} {
				y := []float64{x[0], x[1]}
				y[j] *= s
				notAbove("a probe", y)
			}
		}
	})
}
