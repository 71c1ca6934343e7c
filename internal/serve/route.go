package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// route is one cached solve endpoint. Q is its wire request and P the
// validated parameters its solve runs on, which are also what its
// cache key is derived from (key.go). The route owns the whole request
// pipeline: decode Q strictly, validate it into P (400 on error), key
// P, answer from the solve cache, and on a miss take a solver slot —
// unless the solve is a closed form that needs none — solve, marshal
// and cache the response. Every failure after validation goes through
// writeSolveError.
type route[Q, P any] struct {
	routeInfo
	params func(*Q) (P, error)
	solve  func(*Server, P) (any, error)
	req    *requestPlan[Q]
	keys   *keyPlan[P]
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

// newRoute compiles the route's request and key plans; it panics unless
// the decoder and the key writer handle its types.
func newRoute[Q, P any](info routeInfo, params func(*Q) (P, error), solve func(*Server, P) (any, error)) *route[Q, P] {
	return &route[Q, P]{
		routeInfo: info, params: params, solve: solve,
		req: newRequestPlan[Q](), keys: newKeyPlan[P](),
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
func (rt *route[Q, P]) serve(s *Server, w http.ResponseWriter, r *http.Request, t *reqTiming) {
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
func (rt *route[Q, P]) cached(s *Server, ctx context.Context, t *reqTiming, p P, admit bool) ([]byte, outcome, error) {
	k := newKeyWriter()
	defer k.free()
	return s.cache.get(rt.keys.key(k, rt.tag, &p), func() ([]byte, error) {
		if !admit {
			return rt.render(s, p)
		}
		return s.admit(ctx, t, func() ([]byte, error) { return rt.render(s, p) })
	})
}

// render solves p and marshals the response into its canonical cached
// form (compact JSON, no trailing newline).
func (rt *route[Q, P]) render(s *Server, p P) ([]byte, error) {
	out, err := rt.solve(s, p)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return data, nil
}

// admit runs solve under admission control: it claims a solver slot
// for the duration of the solve, and records the wait and the
// occupancy, as the request's service time, into t. The request
// deadline is armed here, where a request first can block on its
// context, so it bounds admission wait plus solve, and cache hits never
// start a timer.
func (s *Server) admit(ctx context.Context, t *reqTiming, solve func() ([]byte, error)) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.adm.acquire(ctx, t)
	if err != nil {
		return nil, err
	}
	defer release()
	defer s.beginService(t)()
	return solve()
}

// A plan is a type compiled once, when its route or handler is set up,
// for the two walks a request makes over its values: the decoder reads
// a request struct from JSON through its request plan, and the key
// writer encodes a params struct through its key plan. Every op knows
// its value's kind and reaches struct fields by offset, and float64
// slices and matrices have typed loops, so neither walk consults
// reflect per value. Only slices of other element types (structs, in
// /v1/fit's observations and /v1/sweep's points) go through reflect, to
// grow them and to find each element.

// opKind is what an op reads or writes.
type opKind uint8

const (
	opInt       opKind = iota // int; in a key plan any type of kind int
	opFloat                   // float64
	opBool                    // bool
	opString                  // string; request plans only
	opFloats                  // []float64
	opFloatRows               // [][]float64
	opSlice                   // a slice of any other element type
	opStruct                  // a struct
)

// op is the compiled walk over one value.
type op struct {
	kind   opKind
	slice  reflect.Type // opSlice: the slice type
	elem   *op          // opSlice: the element's op
	fields []field      // opStruct: the fields, in order
}

// field is one struct field of an opStruct.
type field struct {
	name string  // the json tag, in a request plan
	off  uintptr // the field's offset in its struct
	op   op
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
	pl := &requestPlan[T]{op: compile(reflect.TypeFor[T](), true)}
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
func newKeyPlan[T any]() *keyPlan[T] { return &keyPlan[T]{compile(reflect.TypeFor[T](), false)} }

// compile builds t's op for a request plan (wire) or a key plan.
func compile(t reflect.Type, wire bool) op {
	k := t.Kind()
	if wire && k != reflect.Slice && k != reflect.Struct && t.PkgPath() != "" {
		panic(fmt.Sprintf("serve: the request reader cannot fill a %s", t))
	}
	switch {
	case k == reflect.Int:
		return op{kind: opInt}
	case k == reflect.Float64:
		return op{kind: opFloat}
	case k == reflect.Bool:
		return op{kind: opBool}
	case k == reflect.String && wire:
		return op{kind: opString}
	case k == reflect.Slice:
		elem := compile(t.Elem(), wire)
		switch elem.kind {
		case opFloat:
			return op{kind: opFloats}
		case opFloats:
			return op{kind: opFloatRows}
		}
		return op{kind: opSlice, slice: t, elem: &elem}
	case k == reflect.Struct:
		fields := make([]field, t.NumField())
		for i := range fields {
			f := t.Field(i)
			fields[i] = field{off: f.Offset, op: compile(f.Type, wire)}
			if wire {
				fields[i].name, _, _ = strings.Cut(f.Tag.Get("json"), ",")
				if fields[i].name == "" || !f.IsExported() {
					panic(fmt.Sprintf("serve: request field %s.%s needs a json tag and an exported name", t, f.Name))
				}
			}
		}
		return op{kind: opStruct, fields: fields}
	case wire:
		panic(fmt.Sprintf("serve: the request reader cannot fill a %s", t))
	}
	panic(fmt.Sprintf("serve: a cache key cannot encode a %s", t))
}
