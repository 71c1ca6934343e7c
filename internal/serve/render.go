package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unsafe"
)

// A miss renders its solve's response struct through the route's
// response plan (route.go) into the bytes json.Marshal would give for
// it, which is what the cache stores (FuzzResponseMatchesEncodingJSON
// holds the renderer to that):
//
//   - fields in struct order as "name":value, compact, and a nil
//     *float64 tagged omitempty left out;
//   - a float64 in strconv's shortest 'f' form, or its 'e' form (with
//     e-09 cut to e-9) outside [1e-6, 1e21), and -0 as -0, written by
//     appendShortest (shortest.go), which TestAppendShortestMatchesStrconv
//     and FuzzAppendFloat hold to strconv byte for byte;
//   - a NaN or infinite float64 fails with the *json.UnsupportedValueError
//     json.Marshal returns, which names the value the same way;
//   - a nil slice or pointer as null, an empty slice as [].
//
// The names are plain ASCII and nothing else is a string, so every
// rendered body is compact ASCII-only JSON with no <, > or &: the bytes
// encoding/json would leave unchanged when it compacts and HTML-escapes
// a json.RawMessage. That is what lets /v1/sweep join its points'
// cached bodies as they are.

// responsePlan is the compiled renderer of response type T.
type responsePlan[T any] struct{ op op }

// newResponsePlan compiles T's response plan. It panics unless every
// field of T is an int, a float64, a []float64 or a *float64, with a
// json tag whose name needs no escaping, and omitempty only on a
// *float64.
func newResponsePlan[T any]() *responsePlan[T] {
	return &responsePlan[T]{compile(reflect.TypeFor[T](), forResponse)}
}

// renderBuf is a pooled buffer a response is rendered into.
type renderBuf struct{ b []byte }

var renderPool = sync.Pool{New: func() any { return new(renderBuf) }}

// render returns the JSON of *v in an exactly sized slice of its own.
func (pl *responsePlan[T]) render(v *T) ([]byte, error) {
	buf := renderPool.Get().(*renderBuf)
	b, err := appendJSON(buf.b[:0], &pl.op, unsafe.Pointer(v))
	var out []byte
	if err == nil {
		out = make([]byte, len(b))
		copy(out, b)
	}
	if cap(b) <= maxPooledBuf {
		buf.b = b
		renderPool.Put(buf)
	}
	return out, err
}

// appendJSON appends the JSON of the value at p, whose plan is o.
func appendJSON(b []byte, o *op, p unsafe.Pointer) ([]byte, error) {
	switch o.kind {
	case opInt:
		return strconv.AppendInt(b, int64(*(*int)(p)), 10), nil
	case opFloat:
		return appendFloat(b, *(*float64)(p))
	case opFloatPtr:
		v := *(**float64)(p)
		if v == nil {
			return append(b, "null"...), nil
		}
		return appendFloat(b, *v)
	case opFloats:
		vs := *(*[]float64)(p)
		if vs == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	}
	// opStruct: compile admits nothing else into a response plan.
	b = append(b, '{')
	first := true
	for i := range o.fields {
		f := &o.fields[i]
		q := unsafe.Add(p, f.off)
		if f.omit && *(**float64)(q) == nil {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, f.name...)
		b = append(b, '"', ':')
		var err error
		if b, err = appendJSON(b, &f.op, q); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return appendShortest(b, f), nil
}
