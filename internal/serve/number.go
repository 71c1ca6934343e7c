package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// JSON numbers are read in the pass that checks their grammar: the
// decoder's number() folds the first 19 significant digits into a
// uint64 mantissa as it scans, notes whether a nonzero digit was
// dropped past them, and keeps the decimal exponent. Converting that
// triple takes no second look at the digits:
//
//   - the exact path: a mantissa below 2^52 times or over a power of
//     ten that float64 holds exactly, as strconv's atof64exact;
//   - otherwise the Eisel–Lemire algorithm, a port of strconv's
//     eiselLemire64; a truncated mantissa stands only if mantissa+1
//     gives the same float, as strconv confirms it;
//   - anything still undecided, or out of range (1e999), goes to
//     strconv.ParseFloat on the literal itself.
//
// Each step returns exactly what strconv.ParseFloat(lit, 64) does, so
// the three together accept, reject and round every literal as it does
// (FuzzParseNumber holds them to that). Ints take the same scan: a
// plain integer literal of up to 18 digits is its mantissa, and any
// other goes to strconv.ParseInt.

// num is one number literal as number() scans it. Up to truncation its
// value is ±man·10^exp10: man holds the first 19 significant digits
// (10^19 < 2^64), trunc reports a nonzero digit past them, and kept
// counts the digits man holds.
type num struct {
	lit     []byte
	man     uint64
	exp10   int
	kept    int
	neg     bool
	trunc   bool
	integer bool // no fraction and no exponent
}

// maxMantDigits is how many significant digits a mantissa holds.
const maxMantDigits = 19

// fold adds the digits b[i:] up to the first non-digit to n's mantissa
// and returns the index of that non-digit. A zero before the first
// significant digit is not kept; lead counts those zeros, since each
// moves the decimal point instead. Eight digits at a time go in one
// step while the mantissa has room for them all; single digits fill the
// rest.
func (n *num) fold(b []byte, i int) (end, lead int) {
	if n.kept == 0 {
		for ; i < len(b) && b[i] == '0'; i++ {
			lead++
		}
	}
	man, kept := n.man, n.kept
	for ; kept+8 <= maxMantDigits && i+8 <= len(b); i, kept = i+8, kept+8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
	}
	for ; i < len(b) && kept < maxMantDigits; i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		man = man*10 + uint64(c)
		kept++
	}
	n.man, n.kept = man, kept
	for ; i < len(b) && isDigit(b[i]); i++ {
		if b[i] != '0' {
			n.trunc = true
		}
	}
	return i, lead
}

// eightDigits reports whether each of the eight bytes v holds is an
// ASCII digit: a byte is one exactly when its high nibble is 3 and
// adding 6 leaves that nibble 3 (0x3A–0x3F carry to 4). A carry out of
// a byte corrupts the next byte's sum, but only a byte that fails
// itself can carry.
func eightDigits(v uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return v&hi|(v+0x0606060606060606)&hi>>4 == 0x3333333333333333
}

// eightDigitsValue returns the number the eight ASCII digits in v spell,
// the first digit in the lowest byte, as a little-endian load of them
// leaves it: neighbouring digits merge into pairs, the pairs into
// fours, the fours into the whole.
func eightDigitsValue(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2k holds digit pair k
	const pairs = 0x000000FF000000FF
	return (v&pairs*(100+1000000<<32) + v>>16&pairs*(1+10000<<32)) >> 32
}

// float returns the float64 nearest n's value, exactly as
// strconv.ParseFloat(n.lit, 64) does; ok is false where it fails.
func (n *num) float() (f float64, ok bool) {
	if !n.trunc {
		if f, ok := exactFloat(n.man, n.exp10, n.neg); ok {
			return f, true
		}
	}
	if f, ok := eiselLemire(n.man, n.exp10, n.neg); ok {
		if !n.trunc {
			return f, true
		}
		// The digits dropped put the value between man and man+1; if
		// both ends round to one float, so does the value.
		if up, ok := eiselLemire(n.man+1, n.exp10, n.neg); ok && math.Float64bits(up) == math.Float64bits(f) {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.lit), 64)
	return f, err == nil
}

// int returns n as an int, exactly as strconv.ParseInt(n.lit, 10,
// strconv.IntSize) does; ok is false where it fails.
func (n *num) int() (v int, ok bool) {
	// Up to 18 digits a mantissa fits a 64-bit int; the MaxInt bound
	// keeps a 32-bit int exact too.
	if n.integer && n.kept <= 18 && n.man <= math.MaxInt {
		v = int(n.man)
		if n.neg {
			v = -v
		}
		return v, true
	}
	i, err := strconv.ParseInt(string(n.lit), 10, strconv.IntSize)
	return int(i), err == nil
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactFloat computes man·10^exp10 with one correctly rounded float
// operation on exact operands, where that is possible.
func exactFloat(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		// A large exponent over few digits: move zeros into the
		// integer part while it stays exact (below 10^15).
		if exp10 > 22 {
			f *= exactPow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / exactPow10[-exp10], true
	}
	return 0, false
}

// The powers of ten of both number conversions, 10^q for q in
// [pow10MantMin, pow10MantMax]: row q is ⌊10^q·2^s⌋ for the s that puts
// it in [2^127, 2^128), as its low and high 64-bit halves. The binary
// exponent s = 127 − pow10Log2(q) is implied by q, so the rows hold
// only mantissas. Parsing multiplies by a row as it stands
// (eiselLemire); formatting (shortest.go) by Schubfach's
// g(k) = ⌊10^-k·2^-r⌋ + 1, with r putting it in [2^125, 2^126), which is
// ⌊row(-k)/4⌋ + 1 for every k (TestPow10TableServesFormatter).
const (
	pow10MantMin = -348
	pow10MantMax = 347
)

var pow10Mant = func() (t [pow10MantMax - pow10MantMin + 1][2]uint64) {
	put := func(q int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[q-pow10MantMin] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	ten := big.NewInt(10)
	var p, m big.Int
	// q ≥ 0: 10^q itself, shifted into the window, truncating.
	p.SetInt64(1)
	for q := 0; q <= pow10MantMax; q++ {
		if n := p.BitLen(); n > 128 {
			m.Rsh(&p, uint(n-128))
		} else {
			m.Lsh(&p, uint(128-n))
		}
		put(q, &m)
		p.Mul(&p, ten)
	}
	// q < 0: with 2^(b-1) < 10^-q < 2^b, 2^(127+b) / 10^-q lies in
	// (2^127, 2^128).
	p.SetInt64(10)
	one := big.NewInt(1)
	for q := -1; q >= pow10MantMin; q-- {
		m.Lsh(one, uint(127+p.BitLen()))
		m.Quo(&m, &p)
		put(q, &m)
		p.Mul(&p, ten)
	}
	return t
}()

// pow10Log2 returns ⌊log2 10^q⌋ for q in the table's range.
func pow10Log2(q int) int { return 217706 * q >> 16 }

// schubfachG returns g(k) for -k in the table's range, as its high and
// low 64-bit halves.
func schubfachG(k int) (g1, g0 uint64) {
	row := &pow10Mant[-k-pow10MantMin]
	g0, carry := bits.Add64(row[0]>>2|row[1]<<62, 1, 0)
	return row[1]>>2 + carry, g0
}

// eiselLemire converts man·10^exp10 to the nearest float64, or reports
// that it cannot decide: a halfway case, a subnormal or infinite
// result, or an exponent outside the table. It is a port of
// eiselLemire64 in Go's strconv/eisel_lemire.go (Copyright 2020 The Go
// Authors, BSD-style license), which follows Nigel Tao's write-up at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html; the section
// names below are that write-up's.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10MantMin || pow10MantMax < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(pow10Log2(exp10)+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	row := &pow10Mant[exp10-pow10MantMin]
	xHi, xLo := bits.Mul64(man, row[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, row[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: zero or underflow is subnormal space, 0x7FF
	// or above Inf/NaN space, and neither is decided here.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
