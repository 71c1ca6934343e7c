package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// appendStrconv appends f as encoding/json writes a float64: strconv's
// shortest 'f' form, or its 'e' form outside [1e-6, 1e21) with e-09 cut
// to e-9.
func appendStrconv(b []byte, f float64) []byte {
	format := byte('f')
	//lopc:allow floateq zero is encoding/json's own exact test: only ±0 keeps the 'f' form below 1e-6
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// TestAppendShortestMatchesStrconv holds appendShortest to appendStrconv on
// the edges of both algorithms and of json's layout, each value with
// both signs: every power of two (each binary exponent's interval,
// including the narrower one below a power of two), every power of ten
// with its float neighbours, the 'e'/'f' switch at 1e-6 and 1e21, zero,
// the largest float, the small subnormals (one- and two-digit shortest
// forms), the integer fast path and its end at 2^53, and seeded random
// bit patterns and magnitudes.
func TestAppendShortestMatchesStrconv(t *testing.T) {
	var buf []byte
	fails := 0
	check := func(f float64) {
		t.Helper()
		for _, v := range [2]float64{f, -f} {
			buf = appendShortest(buf[:0], v)
			if want := appendStrconv(nil, v); string(buf) != string(want) {
				t.Errorf("%v (%#x): appendShortest %s, strconv %s", v, math.Float64bits(v), buf, want)
				if fails++; fails == 20 {
					t.FailNow()
				}
			}
		}
	}
	neighbours := func(f float64, n int) {
		up, down := f, f
		for i := 0; i <= n; i++ {
			check(up)
			check(down)
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
		}
	}
	for e := -1074; e <= 1023; e++ {
		neighbours(math.Ldexp(1, e), 1)
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat(fmt.Sprintf("1e%d", e), 64)
		if err != nil {
			t.Fatal(err)
		}
		neighbours(f, 1)
	}
	neighbours(1e-6, 8)
	neighbours(1e21, 8)
	check(0)
	check(math.MaxFloat64)
	check(math.Nextafter(math.MaxFloat64, 0))
	for m := uint64(1); m < 1<<10; m++ {
		check(math.Float64frombits(m))
	}
	for i := 0; i <= 1<<20; i++ {
		check(float64(i))
	}
	for k := 0; k <= 1000; k++ {
		check(1<<53 + float64(k))
		check(1<<53 - float64(k))
	}
	r := rng.New(0x73686f7274)
	for i := 0; i < 1e6; i++ {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
	for i := 0; i < 1e6; i++ {
		check(r.ExpFloat64() * 300)
	}
}

// TestPow10TableServesFormatter checks Schubfach's g(k), as schubfachG
// takes it from the parse table, against its definition
// ⌊10^-k / 2^r⌋ + 1 with r putting the quotient in [2^125, 2^126), for
// every decimal exponent k a float64 formats at, and checks that the r
// the formatter assumes, pow10Log2(-k) - 125, is that r.
func TestPow10TableServesFormatter(t *testing.T) {
	// k runs from ⌊log10 2^-1074⌋ to ⌊log10 2^971⌋.
	ten := big.NewInt(10)
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	var num, den, quo, g big.Int
	for k := -324; k <= 292; k++ {
		num.SetInt64(1)
		den.SetInt64(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		r := num.BitLen() - den.BitLen() - 126
		for {
			if r >= 0 {
				quo.Quo(&num, new(big.Int).Lsh(&den, uint(r)))
			} else {
				quo.Quo(new(big.Int).Lsh(&num, uint(-r)), &den)
			}
			if quo.Cmp(lo) < 0 {
				r--
			} else if quo.Cmp(hi) >= 0 {
				r++
			} else {
				break
			}
		}
		g.Add(&quo, big.NewInt(1))
		g1, g0 := schubfachG(k)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g1), 64)
		got.Or(got, new(big.Int).SetUint64(g0))
		if got.Cmp(&g) != 0 {
			t.Errorf("g(%d) = %#x, want %#x", k, got, &g)
		}
		if want := pow10Log2(-k) - 125; r != want {
			t.Errorf("g(%d): r = %d, formatter assumes %d", k, r, want)
		}
	}
}

// FuzzAppendFloat holds the response float writer to encoding/json on
// every float64 bit pattern: a finite float is written as appendStrconv
// writes it, and NaN and ±Inf fail with the error json.Marshal returns.
// The seeds are the subnormals with a one-digit shortest form and the
// neighbours of the 'e'/'f' switch at 1e-6 and 1e21.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{5e-324, 1e-323, 8e-323, 1e-322, 1e-6, 1e21} {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(math.Nextafter(v, 0)))
		f.Add(math.Float64bits(math.Nextafter(v, math.Inf(1))))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		got, err := appendFloat(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			_, want := json.Marshal(v)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("%#x: appendFloat error %v, json.Marshal error %v", u, err, want)
			}
			return
		}
		if want := appendStrconv(nil, v); err != nil || string(got) != string(want) {
			t.Fatalf("%#x: appendFloat %s (%v), strconv %s", u, got, err, want)
		}
	})
}

// BenchmarkAppendFloat times appendShortest against appendStrconv, the
// same bytes through strconv.AppendFloat, on the 73 floats of the
// P = 8 /v1/general response the stage benchmarks render, and on
// seeded random bit patterns.
func BenchmarkAppendFloat(b *testing.B) {
	rt := routeAt("/v1/general")
	p, err := rt.parse([]byte(benchGeneralBody))
	if err != nil {
		b.Fatal(err)
	}
	out, err := rt.solveParsed(New(Config{Workers: 2, QueueDepth: 8}), p)
	if err != nil {
		b.Fatal(err)
	}
	g := out.(generalResponse)
	var general []float64
	for _, vs := range [][]float64{g.R, g.X, g.Rw, g.Rq, g.Ry, g.Qq, g.Qy, g.Uq, g.Uy} {
		general = append(general, vs...)
	}
	general = append(general, g.TotalX)
	random := make([]float64, 1024)
	r := rng.New(0x62656e6368)
	for i := range random {
		for random[i] = math.NaN(); math.IsNaN(random[i]) || math.IsInf(random[i], 0); {
			random[i] = math.Float64frombits(r.Uint64())
		}
	}
	buf := make([]byte, 0, 64)
	for _, set := range []struct {
		name string
		fs   []float64
	}{{"general", general}, {"random", random}} {
		b.Run(set.name+"/shortest", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range set.fs {
					buf = appendShortest(buf[:0], f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set.fs)), "ns/float")
		})
		b.Run(set.name+"/strconv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range set.fs {
					buf = appendStrconv(buf[:0], f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set.fs)), "ns/float")
		})
	}
}
