package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Cache keys are a binary canonical encoding of a solve's parameter
// tuple, derived from the route's params struct by one reflective
// walker: the route's tag byte (its index in the route table), then
// every field in struct order, nested structs included — each int as 8
// bytes, each float as the 8 bytes of math.Float64bits(quantize(v)),
// each bool as one byte, and each slice prefixed by its length. Every
// float is quantized to 9 significant decimal digits first.
// Quantization folds floats that differ only in sub-model-resolution
// noise (a client computing W = 1000.0000000001 from its own
// arithmetic) onto one key, while 9 digits is far finer than the
// model's own fixed-point tolerance, so no two solves that quantize
// together ever produce observably different results.
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
	exp := int(math.Floor(math.Log10(math.Abs(v))))
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

// key renders the key of the params value p points to for the route
// tagged tag, replacing whatever the writer held, and returns it; the
// bytes stay valid until the writer's next use.
func (k *keyWriter) key(tag byte, p any) []byte {
	k.b = append(k.b[:0], tag)
	k.value(reflect.ValueOf(p).Elem())
	return k.b
}

func (k *keyWriter) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		k.int(int(v.Int()))
	case reflect.Float64:
		k.num(v.Float())
	case reflect.Bool:
		k.bool(v.Bool())
	case reflect.Slice:
		k.int(v.Len())
		for i := 0; i < v.Len(); i++ {
			k.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			k.value(v.Field(i))
		}
	}
}

// checkKeyType panics unless the key walker encodes every value of
// type t: ints, float64s and bools, and slices and structs of them.
func checkKeyType(t reflect.Type) {
	switch t.Kind() {
	case reflect.Int, reflect.Float64, reflect.Bool:
	case reflect.Slice:
		checkKeyType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			checkKeyType(t.Field(i).Type)
		}
	default:
		panic(fmt.Sprintf("serve: a cache key cannot encode a %s", t))
	}
}
