package serve

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/fit"
)

// Cache keys are a binary canonical encoding of a solve's parameter
// tuple: an endpoint tag byte, then every parameter in a fixed order —
// each int as 8 bytes, each float as the 8 bytes of
// math.Float64bits(quantize(v)), each bool as one byte, and each list,
// matrix and matrix row prefixed by its length. Every float is
// quantized to 9 significant decimal digits first. Quantization folds
// floats that differ only in sub-model-resolution noise (a client
// computing W = 1000.0000000001 from its own arithmetic) onto one key,
// while 9 digits is far finer than the model's own fixed-point
// tolerance, so no two solves that quantize together ever produce
// observably different results.
//
// Two quantized floats share their 8 key bytes exactly when they are
// bit-identical, which — NaN aside, and validation admits none — is
// exactly when their shortest 'g' renderings are equal: comparing key
// bytes groups parameters just as comparing their decimal text would.

// keyTag opens every key, keeping the endpoints' keys disjoint.
type keyTag byte

const (
	tagAllToAll keyTag = iota + 1
	tagWorkpile
	tagBounds
	tagGeneral
	tagFit
	tagLock
	tagLockFree
)

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

func (k *keyWriter) tag(t keyTag) { k.b = append(k.b[:0], byte(t)) }
func (k *keyWriter) int(v int)    { k.b = binary.LittleEndian.AppendUint64(k.b, uint64(v)) }
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

func (k *keyWriter) nums(vs []float64) {
	k.int(len(vs))
	for _, v := range vs {
		k.num(v)
	}
}

// The methods below each render one endpoint's key, replacing whatever
// the writer held, and return it; the bytes stay valid until the
// writer's next use.

func (k *keyWriter) allToAll(p core.Params, n int) []byte {
	k.tag(tagAllToAll)
	k.int(p.P)
	k.num(p.W)
	k.num(p.St)
	k.num(p.So)
	k.num(p.C2)
	k.bool(p.ProtocolProcessor)
	k.int(int(p.Priority))
	k.int(n)
	return k.b
}

func (k *keyWriter) workpile(p core.ClientServerParams) []byte {
	return k.clientServer(tagWorkpile, p)
}

func (k *keyWriter) bounds(p core.ClientServerParams) []byte {
	return k.clientServer(tagBounds, p)
}

func (k *keyWriter) clientServer(t keyTag, p core.ClientServerParams) []byte {
	k.tag(t)
	k.int(p.P)
	k.int(p.Ps)
	k.num(p.W)
	k.num(p.St)
	k.num(p.So)
	k.num(p.C2)
	return k.b
}

func (k *keyWriter) general(p core.GeneralParams) []byte {
	k.tag(tagGeneral)
	k.int(p.P)
	k.nums(p.W)
	k.int(len(p.V))
	for _, row := range p.V {
		k.nums(row)
	}
	k.num(p.St)
	k.nums(p.So)
	k.num(p.C2)
	k.bool(p.ProtocolProcessor)
	return k.b
}

func (k *keyWriter) fit(obs []fit.Observation, p int, c2 float64) []byte {
	k.tag(tagFit)
	k.int(p)
	k.num(c2)
	k.int(len(obs))
	for _, o := range obs {
		k.num(o.W)
		k.num(o.R)
		k.num(o.Rq)
	}
	return k.b
}

func (k *keyWriter) lock(p core.LockParams) []byte {
	return k.threads(tagLock, p.Threads, p.W, p.St, p.So, p.C2)
}

func (k *keyWriter) lockFree(p core.LockFreeParams) []byte {
	return k.threads(tagLockFree, p.Threads, p.W, p.St, p.So, p.C2)
}

func (k *keyWriter) threads(t keyTag, threads int, w, st, so, c2 float64) []byte {
	k.tag(t)
	k.int(threads)
	k.num(w)
	k.num(st)
	k.num(so)
	k.num(c2)
	return k.b
}
