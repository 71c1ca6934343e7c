package serve

import (
	"context"
	"encoding"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// route is one cached solve endpoint. Q is its wire request, P the
// validated parameters its solve runs on, which are also what its cache
// key is derived from (key.go), and R its response. The route owns the
// whole request pipeline: decode Q strictly, validate it into P (400 on
// error), key P, answer from the solve cache, and on a miss take a
// solver slot — unless the solve is a closed form that needs none —
// solve, render R and cache the rendered bytes. Every failure after
// validation goes through writeSolveError.
type route[Q, P, R any] struct {
	routeInfo
	params func(*Q) (P, error)
	solve  func(*Server, P) (R, error)
	req    *requestPlan[Q]
	keys   *keyPlan[P]
	resp   *responsePlan[R]
}

// routeInfo is the part of a route that does not depend on its types.
type routeInfo struct {
	path  string
	tag   byte // the route's index in solveRoutes: the first byte of its keys
	admit bool // the solve takes an admission slot
}

func (ri *routeInfo) info() *routeInfo { return ri }

// endpoint is a route with its types erased, as the route table holds
// it.
type endpoint interface {
	info() *routeInfo
	serve(s *Server, w http.ResponseWriter, r *http.Request, t *reqTiming)
}

// newRoute compiles the route's request, key and response plans; it
// panics unless the decoder, the key writer and the renderer handle its
// types.
func newRoute[Q, P, R any](info routeInfo, params func(*Q) (P, error), solve func(*Server, P) (R, error)) *route[Q, P, R] {
	return &route[Q, P, R]{
		routeInfo: info, params: params, solve: solve,
		req: newRequestPlan[Q](), keys: newKeyPlan[P](), resp: newResponsePlan[R](),
	}
}

// allToAll is the /v1/alltoall route; /v1/sweep solves its points
// through it too.
var allToAll = newRoute(routeInfo{path: "/v1/alltoall", admit: true}, (*alltoallRequest).params, solveAllToAll)

// solveRoutes is the route table, in mount order. Each route's index is
// its key tag, which keeps the routes' keys disjoint.
var solveRoutes = routeTable(
	allToAll,
	newRoute(routeInfo{path: "/v1/workpile", admit: true}, (*workpileRequest).params, solveWorkpile),
	newRoute(routeInfo{path: "/v1/general", admit: true}, (*generalRequest).params, solveGeneral),
	// Bounds are closed forms: no fixed point, no admission needed.
	newRoute(routeInfo{path: "/v1/bounds"}, boundsParams, solveBounds),
	newRoute(routeInfo{path: "/v1/fit", admit: true}, (*fitRequest).params, solveFit),
	newRoute(routeInfo{path: "/v1/lock", admit: true}, (*lockRequest).lockParams, solveLock),
	newRoute(routeInfo{path: "/v1/lockfree", admit: true}, (*lockRequest).lockFreeParams, solveLockFree),
)

// routeTable tags each route with its index.
func routeTable(routes ...endpoint) []endpoint {
	for i, e := range routes {
		e.info().tag = byte(i)
	}
	return routes
}

// serve answers one request. The request value comes from the route's
// pool and goes back to it once the cache has answered: p may alias
// its slices, and the solve that reads them runs on this goroutine,
// inside cached (collapsed waiters only read the leader's bytes).
func (rt *route[Q, P, R]) serve(s *Server, w http.ResponseWriter, r *http.Request, t *reqTiming) {
	q := rt.req.get()
	defer rt.req.put(q)
	if !decodeRequest(w, r, rt.req, q) {
		return
	}
	p, err := rt.params(q)
	if err != nil {
		badRequest(w, err)
		return
	}
	data, o, err := rt.cached(s, r.Context(), t, p, rt.admit)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	s.writeCached(w, data, o)
}

// cached answers p from the solve cache, solving on a miss, under
// admission control when admit is set: the route's own requests pass
// rt.admit, and sweep points, whose request already holds a slot for
// the whole fan-out, pass false. An admitted solve records its wait
// and service into t.
func (rt *route[Q, P, R]) cached(s *Server, ctx context.Context, t *reqTiming, p P, admit bool) ([]byte, outcome, error) {
	k := newKeyWriter()
	defer k.free()
	return s.cache.get(rt.keys.key(k, rt.tag, &p), func() ([]byte, error) {
		if !admit {
			return rt.render(s, p)
		}
		if err := s.admit(ctx, t); err != nil {
			return nil, err
		}
		defer s.endService(t, s.clk.Now())
		return rt.render(s, p)
	})
}

// render solves p and renders the response into its canonical cached
// form: the bytes json.Marshal would give, compact, with no trailing
// newline.
func (rt *route[Q, P, R]) render(s *Server, p P) ([]byte, error) {
	out, err := rt.solve(s, p)
	if err != nil {
		return nil, err
	}
	data, err := rt.resp.render(&out)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return data, nil
}

// admit claims a solver slot for one solve and records the queue wait
// into t; the caller frees the slot with endService. A request that
// finds a free slot takes it at once. Only one that has to queue arms
// the request deadline, which bounds its wait for a slot: the solve
// itself never reads the context. Cache hits and requests admitted
// without a wait start no timer.
func (s *Server) admit(ctx context.Context, t *reqTiming) error {
	start := s.clk.Now()
	if s.adm.try(start, t) {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	return s.adm.wait(ctx, start, t)
}

// A plan is a type compiled once, when its route or handler is set up,
// for the three walks a request makes over its values: the decoder
// reads a request struct from JSON through its request plan, the key
// writer encodes a params struct through its key plan, and on a miss
// the renderer writes the response struct as JSON through its response
// plan (render.go). Every op knows its value's kind and reaches struct
// fields by offset, and float64 slices and matrices have typed loops,
// so no walk consults reflect per value. Only slices of other element
// types (structs, in /v1/fit's observations and /v1/sweep's points) go
// through reflect, to grow them and to find each element.

// opKind is what an op reads or writes.
type opKind uint8

const (
	opInt       opKind = iota // int; in a key or response plan any type of kind int
	opFloat                   // float64
	opBool                    // bool; request and key plans only
	opString                  // string; request plans only
	opFloats                  // []float64
	opFloatRows               // [][]float64; request and key plans only
	opSlice                   // a slice of any other element type; request and key plans only
	opStruct                  // a struct
	opFloatPtr                // *float64; response plans only
)

// op is the compiled walk over one value.
type op struct {
	kind   opKind
	slice  reflect.Type // opSlice: the slice type
	elem   *op          // opSlice: the element's op
	fields []field      // opStruct: the fields, in order
	// index finds a field by its exact name, in a request plan's
	// opStruct: an open-addressed table, hashed by nameHash, of field
	// index + 1, 0 for an empty slot.
	index []uint8
}

// field is one struct field of an opStruct.
type field struct {
	name string  // the json tag's name, in request and response plans
	off  uintptr // the field's offset in its struct
	op   op
	omit bool // response plans: omitempty, which only a *float64 may carry
}

// planFor is the walk a plan is compiled for.
type planFor uint8

const (
	forRequest planFor = iota
	forKey
	forResponse
)

// String completes compile's panic messages.
func (to planFor) String() string {
	switch to {
	case forRequest:
		return "the request reader cannot fill"
	case forKey:
		return "a cache key cannot encode"
	}
	return "the response renderer cannot write"
}

// requestPlan is the compiled reader of request struct type T, with a
// pool of T values to read requests into.
type requestPlan[T any] struct {
	op   op
	clr  *clearPlan
	pool sync.Pool
}

// keyPlan is the compiled key writer of params type T.
type keyPlan[T any] struct{ op op }

// newRequestPlan compiles T's request plan. It panics on a field the
// decoder cannot fill: an untagged or unexported one, or one whose type
// is not int, float64, bool, string, a slice of a readable type or a
// request struct.
func newRequestPlan[T any]() *requestPlan[T] {
	pl := &requestPlan[T]{op: compile(reflect.TypeFor[T](), forRequest)}
	pl.clr = newClearPlan(&pl.op)
	return pl
}

// get returns a value to decode a request into: a reset one from the
// pool, or a fresh one. Either decodes every body to the same value.
func (pl *requestPlan[T]) get() *T {
	if q, ok := pl.pool.Get().(*T); ok {
		return q
	}
	return new(T)
}

// put resets q and returns it to the pool, unless its slices have grown
// past maxPooledBuf bytes.
func (pl *requestPlan[T]) put(q *T) {
	if pl.clr.reset(unsafe.Pointer(q)) <= maxPooledBuf {
		pl.pool.Put(q)
	}
}

// newKeyPlan compiles T's key plan. It panics unless the key writer
// encodes every value of T: ints, float64s and bools, and slices and
// structs of them.
func newKeyPlan[T any]() *keyPlan[T] { return &keyPlan[T]{compile(reflect.TypeFor[T](), forKey)} }

var (
	float64Type   = reflect.TypeFor[float64]()
	marshalerType = reflect.TypeFor[json.Marshaler]()
	textType      = reflect.TypeFor[encoding.TextMarshaler]()
)

// compile builds t's op for the walk to.
func compile(t reflect.Type, to planFor) op {
	k := t.Kind()
	if to != forKey && k != reflect.Slice && k != reflect.Struct && t.PkgPath() != "" ||
		to == forResponse && marshals(t) {
		panic(fmt.Sprintf("serve: %s a %s", to, t))
	}
	switch {
	case k == reflect.Int:
		return op{kind: opInt}
	case k == reflect.Float64:
		return op{kind: opFloat}
	case k == reflect.Bool && to != forResponse:
		return op{kind: opBool}
	case k == reflect.String && to == forRequest:
		return op{kind: opString}
	case k == reflect.Pointer && to == forResponse && t.Elem() == float64Type:
		return op{kind: opFloatPtr}
	case k == reflect.Slice:
		elem := compile(t.Elem(), to)
		switch {
		case elem.kind == opFloat:
			return op{kind: opFloats}
		case elem.kind == opFloats && to != forResponse:
			return op{kind: opFloatRows}
		case to != forResponse:
			return op{kind: opSlice, slice: t, elem: &elem}
		}
	case k == reflect.Struct:
		fields := make([]field, t.NumField())
		for i := range fields {
			fields[i] = compileField(t, i, to)
		}
		o := op{kind: opStruct, fields: fields}
		if to == forRequest {
			o.index = fieldIndex(t, fields)
		}
		return o
	}
	panic(fmt.Sprintf("serve: %s a %s", to, t))
}

// marshals reports whether encoding/json would write a t through a
// method of t or *t rather than by its kind.
func marshals(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	return t.Implements(marshalerType) || pt.Implements(marshalerType) || t.Implements(textType) || pt.Implements(textType)
}

// compileField builds the field of struct t at index i for the walk to.
// Request and response fields need an exported name and a json tag; a
// response field's name must need no escaping, and only a *float64 may
// be omitempty.
func compileField(t reflect.Type, i int, to planFor) field {
	sf := t.Field(i)
	f := field{off: sf.Offset, op: compile(sf.Type, to)}
	if to == forKey {
		return f
	}
	name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
	if name == "" || !sf.IsExported() {
		panic(fmt.Sprintf("serve: field %s.%s needs a json tag and an exported name", t, sf.Name))
	}
	f.name = name
	if to == forResponse {
		f.omit = opts == "omitempty"
		if !plainName(name) || (opts != "" && !f.omit) || (f.omit && f.op.kind != opFloatPtr) {
			panic(fmt.Sprintf("serve: the response renderer cannot write field %s.%s tagged %q", t, sf.Name, sf.Tag.Get("json")))
		}
	}
	return f
}

// plainName reports whether a json name is made of ASCII letters,
// digits and underscores, which encoding/json writes as they are.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || c == '_') {
			return false
		}
	}
	return true
}

// fieldIndex builds the exact-name table of struct t's fields, a power
// of two at least twice their count, so every probe sequence ends at an
// empty slot. Two fields of one name would make encoding/json drop both,
// so compiling refuses them.
func fieldIndex(t reflect.Type, fields []field) []uint8 {
	if len(fields) > 255 {
		panic(fmt.Sprintf("serve: request struct %s has more than 255 fields", t))
	}
	n := 1
	for n < 2*len(fields) {
		n <<= 1
	}
	index := make([]uint8, n)
	for i := range fields {
		h := nameHash(fields[i].name) & (n - 1)
		for ; index[h] != 0; h = (h + 1) & (n - 1) {
			if fields[index[h]-1].name == fields[i].name {
				panic(fmt.Sprintf("serve: request struct %s tags two fields %q", t, fields[i].name))
			}
		}
		index[h] = uint8(i + 1)
	}
	return index
}

// nameHash mixes a non-empty name's length with its first and last
// bytes, which already tell every request field from its neighbours.
func nameHash[S string | []byte](s S) int {
	return 7*len(s) + int(s[0]) + 3*int(s[len(s)-1])
}
