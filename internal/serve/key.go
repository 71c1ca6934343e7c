package serve

import (
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// Cache keys are a binary canonical encoding of a solve's parameter
// tuple, written through the route's key plan (route.go), compiled once
// from its params struct: the route's tag byte (its index in the route
// table), then every field in struct order, nested structs included —
// each int as 8 bytes, each float as the 8 bytes of
// math.Float64bits(quantize(v)), each bool as one byte, and each slice
// prefixed by its length. Every float is quantized to 9 significant
// decimal digits first. Quantization folds floats that differ only in
// sub-model-resolution noise (a client computing W = 1000.0000000001
// from its own arithmetic) onto one key, while 9 digits is far finer
// than the model's own fixed-point tolerance, so no two solves that
// quantize together ever produce observably different results.
//
// Two quantized floats share their 8 key bytes exactly when they are
// bit-identical, which — NaN aside, and validation admits none — is
// exactly when their shortest 'g' renderings are equal: comparing key
// bytes groups parameters just as comparing their decimal text would.

// pow10 holds 10^k for every k quantize can ask for, each computed by
// math.Pow itself so table lookups stay bit-identical to it. A nonzero
// finite float64 has a decimal exponent exp in [-324, 308], so the
// scale exponent 8-exp lies in [pow10Min, pow10Min+len(pow10)).
const pow10Min = 8 - 308

var pow10 = func() (t [8 + 324 - pow10Min + 1]float64) {
	for i := range t {
		t[i] = math.Pow(10, float64(pow10Min+i))
	}
	return t
}()

// quantize rounds v to 9 significant decimal digits. Zero, NaN and Inf
// pass through unchanged (NaN/Inf never reach keying: parameters are
// validated first), and so does any v so small (|v| < ~1e-300) that
// the decimal scale overflows.
func quantize(v float64) float64 {
	//lopc:allow floateq zero is an exact sentinel: only literal 0 has no magnitude to take the log of
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	exp := decimalExp(math.Abs(v))
	scale := pow10[8-exp-pow10Min]
	if math.IsInf(scale, 0) {
		return v
	}
	q := math.Round(v*scale) / scale
	//lopc:allow floateq exactly-zero or infinite q means the scaling over/underflowed at the float64 edges; keep v
	if q == 0 || math.IsInf(q, 0) {
		return v
	}
	return q
}

// log10Band is how near a power of ten, relatively, a float must lie for
// decimalExp to ask math.Log10. math.Log10's absolute error grows with
// its result, and across 1e-300..1e308 its floor misses the true
// decimal exponent as far as 1.3e-13 (relative) from a power of ten;
// the band keeps a wide margin above that.
const log10Band = 1e-11

// decimalExp returns ⌊math.Log10(a)⌋ for a finite a > 0, which decides
// quantize's scale. The float's binary exponent gives its decimal one,
// up to one that a comparison with pow10 settles; only within
// log10Band of a power of ten, where math.Log10's own rounding can land
// on either side, or below the table, does it call math.Log10.
func decimalExp(a float64) int {
	// A normal a lies in [2^e, 2^(e+1)); a subnormal one reads as
	// e = -1023 and goes to math.Log10 below.
	e := int(math.Float64bits(a)>>52) - 1023
	// ⌊e·log10 2⌋, exact over the whole float64 range; a then lies in
	// [10^k, 10^(k+2)).
	k := e * 78913 >> 18
	if k < pow10Min {
		return int(math.Floor(math.Log10(a)))
	}
	lo, hi := pow10[k-pow10Min], pow10[k+1-pow10Min]
	if a >= hi {
		k++
		lo, hi = hi, pow10[k+1-pow10Min]
	}
	if a-lo < log10Band*lo || hi-a < log10Band*hi {
		return int(math.Floor(math.Log10(a)))
	}
	return k
}

// keyWriter renders one canonical key into a reusable buffer. The
// cache looks keys up without copying them, so a hit allocates
// nothing; only a miss materialises the key as a string.
type keyWriter struct{ b []byte }

var keyPool = sync.Pool{New: func() any { return new(keyWriter) }}

// newKeyWriter takes a writer from the pool; free returns it.
func newKeyWriter() *keyWriter { return keyPool.Get().(*keyWriter) }

func (k *keyWriter) free() {
	if cap(k.b) <= maxPooledBuf {
		keyPool.Put(k)
	}
}

func (k *keyWriter) int(v int) { k.b = binary.LittleEndian.AppendUint64(k.b, uint64(v)) }
func (k *keyWriter) num(v float64) {
	k.b = binary.LittleEndian.AppendUint64(k.b, math.Float64bits(quantize(v)))
}

func (k *keyWriter) bool(v bool) {
	var c byte
	if v {
		c = 1
	}
	k.b = append(k.b, c)
}

// key renders the key of *p for the route tagged tag into k, replacing
// whatever the writer held, and returns it; the bytes stay valid until
// the writer's next use.
func (pl *keyPlan[T]) key(k *keyWriter, tag byte, p *T) []byte {
	k.b = append(k.b[:0], tag)
	k.write(&pl.op, unsafe.Pointer(p))
	return k.b
}

// write appends the key bytes of the value at p, whose plan is o.
func (k *keyWriter) write(o *op, p unsafe.Pointer) {
	switch o.kind {
	case opInt:
		k.int(*(*int)(p))
	case opFloat:
		k.num(*(*float64)(p))
	case opBool:
		k.bool(*(*bool)(p))
	case opFloats:
		k.nums(*(*[]float64)(p))
	case opFloatRows:
		rows := *(*[][]float64)(p)
		k.int(len(rows))
		for _, row := range rows {
			k.nums(row)
		}
	case opSlice:
		v := reflect.NewAt(o.slice, p).Elem()
		k.int(v.Len())
		for i := 0; i < v.Len(); i++ {
			k.write(o.elem, v.Index(i).Addr().UnsafePointer())
		}
	case opStruct:
		for i := range o.fields {
			f := &o.fields[i]
			k.write(&f.op, unsafe.Add(p, f.off))
		}
	}
}

// nums appends a float slice: its length, then each element.
func (k *keyWriter) nums(vs []float64) {
	k.int(len(vs))
	for _, v := range vs {
		k.num(v)
	}
}
