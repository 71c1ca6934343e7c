package serve

import (
	"math"
	"math/bits"
)

// A response float is written by appendShortest, the Schubfach method
// of R. Giulietti, "The Schubfach way to render doubles" (2020). For a
// float64 v = c·2^q it takes k = ⌊log10 2^q⌋, so that the interval of
// reals rounding to v, 2^q wide, holds at most one multiple of 10^(k+1)
// and at least one of 10^k. It scales v and the two ends of that
// interval by 10^-k, each with one 128-bit multiply by
// g(k) = ⌊10^-k·2^-r⌋ + 1 (r puts g in [2^125, 2^126)) rounded to odd,
// and picks the shortest decimal from the two scaled candidates at each
// precision, the nearest to v where two are equally short. g(k) is
// ⌊pow10Mant[-k]/4⌋ + 1, a row of the decoder's own power-of-ten table
// (number.go), so parsing and formatting share one table.
//
// The digits are those strconv.FormatFloat(v, 'g', -1, 64) finds,
// subnormals included, and the layout is encoding/json's; the tests
// hold appendShortest to strconv plus json's exponent cleanup byte for
// byte.

// appendShortest appends the finite f as encoding/json writes a
// float64: the shortest decimal that reads back as f, in 'f' form, or
// in 'e' form with an unpadded exponent (e-7, e+21) when |f| is
// outside [1e-6, 1e21); -0 is written -0.
func appendShortest(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	mant, exp := u&(1<<52-1), int(u>>52&0x7FF)
	if mant == 0 && exp == 0 {
		return append(b, '0')
	}
	d, e := shortestDecimal(mant, exp)
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		return appendExp(b, d, e)
	}
	return appendFixed(b, d, e)
}

// shortestDecimal returns the shortest decimal d·10^e that reads back
// as the positive float64 of the given mantissa and biased exponent,
// the nearest to it where several are as short (ties to even d). d has
// no trailing zeros, except for an integer below 2^53, which comes back
// as itself with e = 0.
func shortestDecimal(mant uint64, exp int) (d uint64, e int) {
	c, q := mant, -1074
	if exp != 0 {
		c |= 1 << 52
		q = exp - 1075
		if -52 <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
			return c >> uint(-q), 0
		}
	}
	// The interval rounding to v, scaled by 4: (cbl, cbr)·2^(q-2), its
	// ends included when c is even. Where the float below v is nearer
	// than the float above, the interval is a quarter narrower below,
	// and k is taken from its 3/4·2^q width.
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	var k int
	if mant == 0 && exp > 1 {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log10(3/4·2^q)⌋
	} else {
		k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	}
	g1, g0 := schubfachG(k)
	h := q + pow10Log2(-k) + 3
	vbl := roundToOdd(g1, g0, cbl<<uint(h))
	vb := roundToOdd(g1, g0, cb<<uint(h))
	vbr := roundToOdd(g1, g0, cbr<<uint(h))
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower++
		upper--
	}
	// Candidates at 10^(k+1): sp and sp+1, of which at most one rounds
	// to v (sp = 0 never does). One that does is the shortest.
	s := vb >> 2
	sp := s / 10
	if upin, wpin := lower <= 40*sp, 40*sp+40 <= upper; upin != wpin {
		if wpin {
			sp++
		}
		return trimZeros(sp, k+1)
	}
	// Candidates at 10^k: s and s+1; the one rounding to v, or the
	// nearer where both do.
	uin, win := lower <= 4*s, 4*s+4 <= upper
	if uin == win {
		mid := 4*s + 2
		win = vb > mid || vb == mid && s&1 != 0
	}
	if win {
		s++
	}
	return trimZeros(s, k)
}

// roundToOdd returns ⌊g·cp/2^128⌋ for g = g1·2^64 + g0, with the low bit
// set when the fraction it drops, read from its top 63 bits, is not
// zero: the paper's rop, which keeps an inexact product from comparing
// equal to an even bound. Where the product by 10^-k itself is exact,
// the +1 in g adds less than 2^-63 to it, which reads as zero.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z, carry := bits.Add64(y0, x1, 0)
	v := y1 + carry
	if z > 1 {
		v |= 1
	}
	return v
}

// trimZeros moves d's trailing zeros into e.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes d's decimal digits at the end of buf and returns the
// index of the first. Eight digits at a time split off in 64-bit
// arithmetic; each eight, and what is left, is written two digits at a
// time in 32-bit arithmetic.
func putDigits(buf *[20]byte, d uint64) int {
	i := len(buf)
	for d >= 1e8 {
		i -= 8
		put8Digits(buf[i:i+8], uint32(d%1e8))
		d /= 1e8
	}
	v := uint32(d)
	for v >= 100 {
		r := v % 100
		v /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if v >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		i--
		buf[i] = byte('0' + v)
	}
	return i
}

// put8Digits writes v < 10^8 into b as exactly eight digits.
func put8Digits(b []byte, v uint32) {
	_ = b[7]
	hi, lo := v/10000, v%10000
	a, c := hi/100, hi%100
	e, g := lo/100, lo%100
	b[0], b[1] = digitPairs[2*a], digitPairs[2*a+1]
	b[2], b[3] = digitPairs[2*c], digitPairs[2*c+1]
	b[4], b[5] = digitPairs[2*e], digitPairs[2*e+1]
	b[6], b[7] = digitPairs[2*g], digitPairs[2*g+1]
}

// appendFixed appends d·10^e without an exponent.
func appendFixed(b []byte, d uint64, e int) []byte {
	var buf [20]byte
	digits := buf[putDigits(&buf, d):]
	switch n := len(digits); {
	case e >= 0:
		b = append(b, digits...)
		for ; e > 0; e-- {
			b = append(b, '0')
		}
	case n > -e:
		b = append(b, digits[:n+e]...)
		b = append(b, '.')
		b = append(b, digits[n+e:]...)
	default:
		b = append(b, '0', '.')
		for z := -e - n; z > 0; z-- {
			b = append(b, '0')
		}
		b = append(b, digits...)
	}
	return b
}

// appendExp appends d·10^e, d without trailing zeros, as one digit, the
// rest after a point if there are any, and an unpadded signed exponent.
func appendExp(b []byte, d uint64, e int) []byte {
	var buf [20]byte
	digits := buf[putDigits(&buf, d):]
	b = append(b, digits[0])
	if len(digits) > 1 {
		b = append(b, '.')
		b = append(b, digits[1:]...)
	}
	x := e + len(digits) - 1
	if x < 0 {
		b = append(b, 'e', '-')
		x = -x
	} else {
		b = append(b, 'e', '+')
	}
	if x >= 100 {
		b = append(b, byte('0'+x/100))
		x %= 100
		return append(b, digitPairs[2*x], digitPairs[2*x+1])
	}
	if x >= 10 {
		return append(b, digitPairs[2*x], digitPairs[2*x+1])
	}
	return append(b, byte('0'+x))
}
