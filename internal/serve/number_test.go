package serve

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// scanNumber scans s as one JSON number literal and reports whether all
// of s is one.
func scanNumber(s string) (num, bool) {
	d := &decoder{data: []byte(s)}
	var n num
	return n, d.number(&n) && d.off == len(s)
}

// checkNumber holds the number read to strconv on the literal s: the
// float64 bits ParseFloat returns, and the int ParseInt returns, and
// failure exactly where they fail.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	n, ok := scanNumber(s)
	if !ok {
		t.Fatalf("%q: not scanned as one JSON number", s)
	}
	got, okGot := n.float()
	want, err := strconv.ParseFloat(s, 64)
	if okGot != (err == nil) || okGot && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: float %v (%#x, ok %v), strconv %v (%#x, %v)",
			s, got, math.Float64bits(got), okGot, want, math.Float64bits(want), err)
	}
	gotInt, okGot := n.int()
	wantInt, err := strconv.ParseInt(s, 10, strconv.IntSize)
	if okGot != (err == nil) || okGot && int64(gotInt) != wantInt {
		t.Fatalf("%q: int %d (ok %v), strconv %d (%v)", s, gotInt, okGot, wantInt, err)
	}
}

// FuzzParseNumber: every literal of the JSON number grammar converts to
// the float64 strconv.ParseFloat gives it, bit for bit, and to the int
// strconv.ParseInt gives it, failing exactly where they fail. Inputs
// outside the grammar are skipped.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "1", "1.5", "1e2", "1E+2", "1.4285714285714285e-1",
		"0.14285714285714285", "9007199254740993", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "123456789012345678",
		"2.2250738585072011e-308", "4.9406564584124654e-324",
		"1.7976931348623157e308", "1.7976931348623159e308",
		"1e999", "1e-999", "1e-400",
		"123456789012345678901234567890", "0.123456789012345678901234567890e5",
		// Halfway cases: 2^53+1, and 1 + 2^-53 spelled out, exactly
		// and one digit past.
		"9007199254740993", "9007199254740993.000000000000000001",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.000000000000000111022302462515654042363166809082031250000001",
		"1e23", "8.988465674311579e307", "0.000000000000000000000000000001",
		// fold's eight-digit steps: runs of 7, 8, 9, 16, 17, 19 and 20
		// digits, in the integer part and in the fraction.
		"1234567", "12345678", "123456789", "1234567890123456", "12345678901234567",
		"1234567890123456789", "12345678901234567890", "99999999", "9999999999999999999",
		"0.1234567", "0.12345678", "0.123456789", "0.1234567890123456",
		"0.12345678901234567", "0.1234567890123456789", "0.12345678901234567890",
		// '/' and ':', the bytes next to '0' and '9', end a block.
		"1234/678", "1234:678", "1234567/", "1234567:", "/2345678", ":2345678",
		// Leading zeros before a block, in the integer part (where JSON
		// allows one) and in the fraction.
		"0.00000000123456789", "0.0000000012345678", "-0.000012345678901234567",
		"00000000", "000000001",
		// Blocks that straddle '.' or 'e'.
		"1234.5678", "1234567.8", "12345678.12345678", "1234567.12345678901",
		"1234567e8", "12345678e9", "1234567E-8", "0.1234567e12", "1.2345678e-3",
		"12345678901.2345678", "123456789012.345678e-5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, ok := scanNumber(s); !ok {
			t.Skip("not a JSON number literal")
		}
		checkNumber(t, s)
	})
}

// TestParseNumberMatchesStrconv draws literals of every shape the
// grammar has — short and long mantissas, leading zeros in the
// fraction, exponents across and past the float64 range, round-trip
// renderings of random floats — and holds each to strconv.
func TestParseNumberMatchesStrconv(t *testing.T) {
	r := rng.New(0x6e756d)
	digits := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + r.Intn(10)))
		}
		return b.String()
	}
	const draws = 200_000
	for i := 0; i < draws; i++ {
		var s string
		switch r.Intn(4) {
		case 0: // a random float's shortest rendering
			v := math.Float64frombits(r.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s = strconv.FormatFloat(v, 'g', -1, 64)
		case 1: // the same with up to 30 digits
			v := math.Float64frombits(r.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s = strconv.FormatFloat(v, 'e', r.Intn(30), 64)
		default: // a literal built from the grammar
			s = strings.TrimLeft(digits(1+r.Intn(25)), "0")
			if s == "" {
				s = "0"
			}
			if r.Intn(2) == 0 {
				s += "." + strings.Repeat("0", r.Intn(4)) + digits(1+r.Intn(25))
			}
			if r.Intn(2) == 0 {
				s += [...]string{"e", "E", "e+", "e-"}[r.Intn(4)] + strconv.Itoa(r.Intn(400))
			}
			if r.Intn(2) == 0 {
				s = "-" + s
			}
		}
		checkNumber(t, s)
	}
}

// TestEightDigits holds fold's eight-digit step to the byte-at-a-time
// reading it replaces: every byte value at every place of a block of
// digits, and every block of one digit repeated.
func TestEightDigits(t *testing.T) {
	check := func(b []byte) {
		v := binary.LittleEndian.Uint64(b)
		want := true
		for _, c := range b {
			want = want && isDigit(c)
		}
		if got := eightDigits(v); got != want {
			t.Fatalf("%q: eightDigits %v, want %v", b, got, want)
		}
		if !want {
			return
		}
		n, err := strconv.ParseUint(string(b), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := eightDigitsValue(v); got != n {
			t.Fatalf("%q: eightDigitsValue %d, want %d", b, got, n)
		}
	}
	for at := 0; at < 8; at++ {
		for c := 0; c < 256; c++ {
			b := []byte("31415926")
			b[at] = byte(c)
			check(b)
		}
	}
	for c := byte('0'); c <= '9'; c++ {
		check([]byte(strings.Repeat(string(c), 8)))
	}
}

// TestPow10MantRows checks the generated Eisel–Lemire table against
// rows of the table strconv/eisel_lemire.go spells out.
func TestPow10MantRows(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{22, 0x0000000000000000, 0x878678326EAC9000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Mant[c.q-pow10MantMin]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: row %#x, want %#x", c.q, got, [2]uint64{c.lo, c.hi})
		}
	}
}

// TestNumberTypeErrors: a number a field cannot hold is the same type
// error, word for word, as before the one-pass read.
func TestNumberTypeErrors(t *testing.T) {
	pl := newRequestPlan[alltoallRequest]()
	for body, want := range map[string]string{
		`{"p":1e2}`:                  `cannot unmarshal number 1e2 into field "p" of type int`,
		`{"p":1.5}`:                  `cannot unmarshal number 1.5 into field "p" of type int`,
		`{"p":9223372036854775808}`:  `cannot unmarshal number 9223372036854775808 into field "p" of type int`,
		`{"w":1e999}`:                `cannot unmarshal number 1e999 into field "w" of type float64`,
		`{"w":-1.8e308,"p":1.5}`:     `cannot unmarshal number -1.8e308 into field "w" of type float64`,
		`{"w":1,"st":"1","p":1e400}`: `cannot unmarshal string into field "st" of type float64`,
	} {
		err := decodeBody([]byte(body), pl, new(alltoallRequest))
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", body, err, want)
		}
	}
}
