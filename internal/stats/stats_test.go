package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTallyAgainstNaive(t *testing.T) {
	r := rng.New(1)
	var tl Tally
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64()*100 - 50
		xs = append(xs, x)
		tl.Add(x)
	}
	// Naive two-pass computation.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if !almost(tl.Mean(), mean, 1e-9) {
		t.Errorf("Welford mean %v, naive %v", tl.Mean(), mean)
	}
	if !almost(tl.Variance(), variance, 1e-6) {
		t.Errorf("Welford variance %v, naive %v", tl.Variance(), variance)
	}
}

func TestTallyMinMaxSum(t *testing.T) {
	var tl Tally
	for _, x := range []float64{3, -1, 4, 1, 5} {
		tl.Add(x)
	}
	if tl.Min() != -1 || tl.Max() != 5 {
		t.Errorf("min/max = %v/%v, want -1/5", tl.Min(), tl.Max())
	}
	if !almost(tl.Sum(), 12, 1e-9) {
		t.Errorf("sum = %v, want 12", tl.Sum())
	}
	if tl.N() != 5 {
		t.Errorf("n = %d, want 5", tl.N())
	}
}

func TestTallyEmpty(t *testing.T) {
	var tl Tally
	if tl.Mean() != 0 || tl.Variance() != 0 || tl.SCV() != 0 {
		t.Error("empty tally should report zero moments")
	}
}

func TestTallySingleObservation(t *testing.T) {
	var tl Tally
	tl.Add(7)
	if tl.Variance() != 0 {
		t.Errorf("variance of single observation = %v, want 0", tl.Variance())
	}
}

// TestTallyMergeProperty: merging two tallies equals one tally over the
// concatenated observations.
func TestTallyMergeProperty(t *testing.T) {
	f := func(seed uint64, n1Raw, n2Raw uint8) bool {
		r := rng.New(seed)
		n1, n2 := int(n1Raw%50), int(n2Raw%50)
		var a, b, all Tally
		for i := 0; i < n1; i++ {
			x := r.Float64() * 10
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := r.Float64() * 10
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almost(a.Mean(), all.Mean(), 1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTallySCV(t *testing.T) {
	var tl Tally
	// Samples 1 and 3: mean 2, variance (unbiased) 2, SCV 0.5.
	tl.Add(1)
	tl.Add(3)
	if !almost(tl.SCV(), 0.5, 1e-12) {
		t.Errorf("SCV = %v, want 0.5", tl.SCV())
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)  // value 1 on [0, 10)
	w.Set(10, 3) // value 3 on [10, 20)
	w.Advance(20)
	if !almost(w.Mean(), 2, 1e-12) {
		t.Errorf("time-weighted mean = %v, want 2", w.Mean())
	}
	if w.Elapsed() != 20 {
		t.Errorf("elapsed = %v, want 20", w.Elapsed())
	}
}

func TestTimeWeightedReset(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 100)
	w.Set(50, 100)
	w.Reset(50, 2)
	w.Advance(60)
	if !almost(w.Mean(), 2, 1e-12) {
		t.Errorf("mean after reset = %v, want 2", w.Mean())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	var w TimeWeighted
	w.Set(10, 1)
	w.Set(5, 2)
}

func TestTimeWeightedNoElapsed(t *testing.T) {
	var w TimeWeighted
	w.Set(3, 9)
	if w.Mean() != 0 {
		t.Errorf("mean with no elapsed time = %v, want 0", w.Mean())
	}
	if w.Value() != 9 {
		t.Errorf("value = %v, want 9", w.Value())
	}
}

func TestBatchMeansIIDCoverage(t *testing.T) {
	// For iid observations the CI should usually cover the true mean.
	covered := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		r := rng.New(uint64(trial) + 1)
		bm := NewBatchMeans(50)
		for i := 0; i < 2500; i++ {
			bm.Add(r.ExpFloat64()) // true mean 1
		}
		if math.Abs(bm.Mean()-1) <= bm.HalfWidth95() {
			covered++
		}
	}
	if covered < 85 {
		t.Errorf("95%% CI covered true mean in only %d/%d trials", covered, trials)
	}
}

func TestBatchMeansFewBatches(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 15; i++ {
		bm.Add(1)
	}
	if bm.Batches() != 1 {
		t.Fatalf("batches = %d, want 1", bm.Batches())
	}
	if !math.IsInf(bm.HalfWidth95(), 1) {
		t.Error("half-width with one batch should be +Inf")
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(110, 100); !almost(e, 0.1, 1e-12) {
		t.Errorf("RelErr = %v, want 0.1", e)
	}
	if e := RelErr(5, 0); e != 0 {
		t.Errorf("RelErr with zero want = %v, want 0", e)
	}
}

func TestTCritical(t *testing.T) {
	if v := tCritical95(1); v != 12.706 {
		t.Errorf("t(1) = %v", v)
	}
	if v := tCritical95(1000); v != 1.96 {
		t.Errorf("t(1000) = %v", v)
	}
	if !math.IsInf(tCritical95(0), 1) {
		t.Error("t(0) should be +Inf")
	}
}

func TestAutoCorrWhiteNoise(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if c := AutoCorr(xs, 1); math.Abs(c) > 0.03 {
		t.Errorf("white-noise lag-1 autocorr = %v, want ~0", c)
	}
}

func TestAutoCorrAR1(t *testing.T) {
	// x[i] = 0.8·x[i-1] + noise has lag-1 autocorrelation ≈ 0.8.
	r := rng.New(78)
	xs := make([]float64, 50000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + r.NormFloat64()
	}
	if c := AutoCorr(xs, 1); math.Abs(c-0.8) > 0.03 {
		t.Errorf("AR(1) lag-1 autocorr = %v, want ~0.8", c)
	}
	if c2 := AutoCorr(xs, 2); math.Abs(c2-0.64) > 0.04 {
		t.Errorf("AR(1) lag-2 autocorr = %v, want ~0.64", c2)
	}
}

func TestAutoCorrEdgeCases(t *testing.T) {
	if AutoCorr(nil, 1) != 0 {
		t.Error("nil series")
	}
	if AutoCorr([]float64{1, 2, 3}, 0) != 0 {
		t.Error("lag 0 should return 0 (undefined here)")
	}
	if AutoCorr([]float64{5, 5, 5, 5}, 1) != 0 {
		t.Error("constant series should return 0")
	}
}

func TestSuggestBatchSize(t *testing.T) {
	// Strongly correlated series needs bigger batches than white noise.
	r := rng.New(79)
	ar := make([]float64, 40000)
	white := make([]float64, 40000)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.95*ar[i-1] + r.NormFloat64()
		white[i] = r.NormFloat64()
	}
	bAR := SuggestBatchSize(ar, 0.1, 4, 4096)
	bWhite := SuggestBatchSize(white, 0.1, 4, 4096)
	if bAR <= bWhite {
		t.Errorf("AR batch %d not above white-noise batch %d", bAR, bWhite)
	}
	if bWhite > 16 {
		t.Errorf("white-noise batch %d unexpectedly large", bWhite)
	}
}

func TestTallyHalfWidth95(t *testing.T) {
	var one Tally
	one.Add(3)
	if !math.IsInf(one.HalfWidth95(), 1) {
		t.Error("one observation should give an infinite half-width")
	}
	// Five replication means 10, 12, 11, 9, 13: mean 11, sd ~1.581,
	// t(4) = 2.776 -> half-width 2.776 * 1.5811 / sqrt(5) = 1.963.
	var tl Tally
	for _, x := range []float64{10, 12, 11, 9, 13} {
		tl.Add(x)
	}
	hw := tl.HalfWidth95()
	if math.Abs(hw-1.963) > 0.01 {
		t.Errorf("HalfWidth95 = %v, want ~1.963", hw)
	}
	// More replications of the same spread must tighten the interval.
	var big Tally
	for i := 0; i < 100; i++ {
		big.Add([]float64{10, 12, 11, 9, 13}[i%5])
	}
	if big.HalfWidth95() >= hw {
		t.Errorf("CI did not tighten: n=100 half-width %v >= n=5 half-width %v", big.HalfWidth95(), hw)
	}
}
