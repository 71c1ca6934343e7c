package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// sampleMoments estimates the mean and SCV of d from n samples.
func sampleMoments(t *testing.T, d Distribution, n int, seed uint64) (mean, scv float64) {
	t.Helper()
	r := rng.New(seed)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0 {
			t.Fatalf("%v produced negative sample %v", d, v)
		}
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean == 0 {
		return mean, 0
	}
	return mean, variance / (mean * mean)
}

// checkMoments verifies that d's sampled moments match its declared
// analytical moments within tolerance.
func checkMoments(t *testing.T, d Distribution, relTol, scvTol float64) {
	t.Helper()
	mean, scv := sampleMoments(t, d, 400000, 12345)
	if want := d.Mean(); math.Abs(mean-want) > relTol*math.Max(want, 1) {
		t.Errorf("%v sampled mean %v, declared %v", d, mean, want)
	}
	if want := d.SCV(); math.Abs(scv-want) > scvTol {
		t.Errorf("%v sampled SCV %v, declared %v", d, scv, want)
	}
}

func TestDeterministic(t *testing.T) {
	d := NewDeterministic(200)
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if v := d.Sample(r); v != 200 {
			t.Fatalf("deterministic sample %v != 200", v)
		}
	}
	if d.Mean() != 200 || d.SCV() != 0 {
		t.Fatalf("deterministic moments: mean=%v scv=%v", d.Mean(), d.SCV())
	}
}

func TestDeterministicRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDeterministic(-1) did not panic")
		}
	}()
	NewDeterministic(-1)
}

func TestExponentialMoments(t *testing.T) {
	checkMoments(t, NewExponential(131), 0.01, 0.05)
}

func TestUniformMoments(t *testing.T) {
	checkMoments(t, NewUniform(100, 300), 0.01, 0.02)
}

func TestUniformDegenerate(t *testing.T) {
	d := NewUniform(50, 50)
	if d.Mean() != 50 || d.SCV() != 0 {
		t.Fatalf("degenerate uniform moments: mean=%v scv=%v", d.Mean(), d.SCV())
	}
}

func TestErlangMoments(t *testing.T) {
	for _, k := range []int{1, 2, 4, 10} {
		checkMoments(t, NewErlang(k, 500), 0.01, 0.05)
	}
}

func TestErlangSCVDeclared(t *testing.T) {
	if got := NewErlang(4, 100).SCV(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Erlang-4 SCV = %v, want 0.25", got)
	}
}

func TestHyperExp2Moments(t *testing.T) {
	for _, scv := range []float64{1.2, 2, 5} {
		d := NewHyperExp2Balanced(200, scv)
		if math.Abs(d.Mean()-200) > 1e-9 {
			t.Fatalf("HyperExp2 declared mean %v, want 200", d.Mean())
		}
		if math.Abs(d.SCV()-scv) > 1e-9 {
			t.Fatalf("HyperExp2 declared SCV %v, want %v", d.SCV(), scv)
		}
		checkMoments(t, d, 0.02, 0.25)
	}
}

func TestErlangMixMoments(t *testing.T) {
	for _, scv := range []float64{0.1, 0.3, 0.55, 0.9} {
		d := NewErlangMix(150, scv)
		if math.Abs(d.Mean()-150) > 1e-6 {
			t.Fatalf("ErlangMix(scv=%v) declared mean %v, want 150", scv, d.Mean())
		}
		if math.Abs(d.SCV()-scv) > 1e-6 {
			t.Fatalf("ErlangMix declared SCV %v, want %v", d.SCV(), scv)
		}
		checkMoments(t, d, 0.01, 0.05)
	}
}

func TestFromMeanSCVFamilies(t *testing.T) {
	cases := []struct {
		mean, scv float64
		wantType  string
	}{
		{200, 0, "Deterministic"},
		{200, 1, "Exponential"},
		{200, 0.25, "Erlang"},
		{200, 0.3, "ErlangMix"},
		{200, 2, "HyperExp2"},
	}
	for _, c := range cases {
		d := FromMeanSCV(c.mean, c.scv)
		var got string
		switch d.(type) {
		case Deterministic:
			got = "Deterministic"
		case Exponential:
			got = "Exponential"
		case Erlang:
			got = "Erlang"
		case ErlangMix:
			got = "ErlangMix"
		case HyperExp2:
			got = "HyperExp2"
		}
		if got != c.wantType {
			t.Errorf("FromMeanSCV(%v, %v) = %s, want %s", c.mean, c.scv, got, c.wantType)
		}
	}
}

func TestFromMeanSCVZeroMean(t *testing.T) {
	d := FromMeanSCV(0, 0)
	if d.Mean() != 0 {
		t.Fatalf("FromMeanSCV(0,0).Mean() = %v", d.Mean())
	}
}

// TestFromMeanSCVMomentsProperty is the core property test: for any
// requested (mean, scv) in the supported range, the returned
// distribution's declared moments match the request exactly.
func TestFromMeanSCVMomentsProperty(t *testing.T) {
	f := func(meanRaw, scvRaw uint16) bool {
		mean := 1 + float64(meanRaw%2000)
		scv := float64(scvRaw%300) / 100 // 0.00 .. 2.99
		d := FromMeanSCV(mean, scv)
		return math.Abs(d.Mean()-mean) < 1e-6*mean &&
			math.Abs(d.SCV()-scv) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFromMeanSCVSampledProperty spot-checks that sampled moments track
// the request across the SCV range.
func TestFromMeanSCVSampledProperty(t *testing.T) {
	for _, scv := range []float64{0, 0.2, 0.5, 1, 1.5, 3} {
		d := FromMeanSCV(1000, scv)
		mean, gotSCV := sampleMoments(t, d, 300000, 777)
		if math.Abs(mean-1000) > 20 {
			t.Errorf("scv=%v: sampled mean %v, want ~1000", scv, mean)
		}
		tol := 0.05 + 0.1*scv
		if math.Abs(gotSCV-scv) > tol {
			t.Errorf("scv=%v: sampled SCV %v", scv, gotSCV)
		}
	}
}

func TestFromMeanSCVPanics(t *testing.T) {
	for _, c := range []struct{ mean, scv float64 }{
		{-1, 0}, {100, -0.5}, {0, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromMeanSCV(%v, %v) did not panic", c.mean, c.scv)
				}
			}()
			FromMeanSCV(c.mean, c.scv)
		}()
	}
}

// TestConstructorsRejectNonFinite: every constructor refuses NaN and
// ±Inf in each float argument, as it refuses out-of-range values. A
// NaN mean that got through would reach the simulator as a NaN event
// delay.
func TestConstructorsRejectNonFinite(t *testing.T) {
	rows := []struct {
		name  string
		build func(x float64)
	}{
		{"NewDeterministic(x)", func(x float64) { NewDeterministic(x) }},
		{"NewExponential(x)", func(x float64) { NewExponential(x) }},
		{"NewUniform(x, 10)", func(x float64) { NewUniform(x, 10) }},
		{"NewUniform(1, x)", func(x float64) { NewUniform(1, x) }},
		{"NewErlang(2, x)", func(x float64) { NewErlang(2, x) }},
		{"NewHyperExp2Balanced(x, 4)", func(x float64) { NewHyperExp2Balanced(x, 4) }},
		{"NewHyperExp2Balanced(10, x)", func(x float64) { NewHyperExp2Balanced(10, x) }},
		{"NewErlangMix(x, 0.3)", func(x float64) { NewErlangMix(x, 0.3) }},
		{"NewErlangMix(10, x)", func(x float64) { NewErlangMix(10, x) }},
		{"FromMeanSCV(x, 0.5)", func(x float64) { FromMeanSCV(x, 0.5) }},
		{"FromMeanSCV(10, x)", func(x float64) { FromMeanSCV(10, x) }},
		{"NewLognormalMeanSCV(x, 1)", func(x float64) { NewLognormalMeanSCV(x, 1) }},
		{"NewLognormalMeanSCV(10, x)", func(x float64) { NewLognormalMeanSCV(10, x) }},
		{"NewLomaxMeanSCV(x, 2)", func(x float64) { NewLomaxMeanSCV(x, 2) }},
		{"NewLomaxMeanSCV(10, x)", func(x float64) { NewLomaxMeanSCV(10, x) }},
	}
	for _, r := range rows {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with x = %v did not panic", r.name, x)
					}
				}()
				r.build(x)
			}()
		}
	}
}

func TestStringerOutputs(t *testing.T) {
	ds := []Distribution{
		NewDeterministic(1), NewExponential(1), NewUniform(0, 2),
		NewErlang(3, 1), NewHyperExp2Balanced(1, 2), NewErlangMix(1, 0.4),
	}
	for _, d := range ds {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func BenchmarkExponentialSample(b *testing.B) {
	d := NewExponential(200)
	r := rng.New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = d.Sample(r)
	}
	_ = sink
}

func BenchmarkHyperExp2Sample(b *testing.B) {
	d := NewHyperExp2Balanced(200, 2)
	r := rng.New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = d.Sample(r)
	}
	_ = sink
}

func TestErlangLargeShapeNoUnderflow(t *testing.T) {
	// Regression for a fuzz finding: huge stage counts must not
	// underflow the product-of-uniforms sampler into +Inf.
	d := NewErlang(1746, 486)
	r := rng.New(1)
	var tl float64
	for i := 0; i < 2000; i++ {
		v := d.Sample(r)
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			t.Fatalf("bad sample %v", v)
		}
		tl += v
	}
	if mean := tl / 2000; math.Abs(mean-486) > 10 {
		t.Fatalf("mean %v, want ~486 (SCV tiny)", mean)
	}
}
