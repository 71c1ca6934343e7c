package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
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
	// check panics unless the key walker and the request reader handle
	// the route's types.
	check()
	serve(s *Server, w http.ResponseWriter, r *http.Request)
}

func newRoute[Q, P any](info routeInfo, params func(*Q) (P, error), solve func(*Server, P) (any, error)) *route[Q, P] {
	return &route[Q, P]{routeInfo: info, params: params, solve: solve}
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

// routeTable tags each route with its index and checks its types.
func routeTable(routes ...endpoint) []endpoint {
	for i, e := range routes {
		e.info().tag = byte(i)
		e.check()
	}
	return routes
}

func (rt *route[Q, P]) check() {
	wireFields(reflect.TypeFor[Q]())
	checkKeyType(reflect.TypeFor[P]())
}

func (rt *route[Q, P]) serve(s *Server, w http.ResponseWriter, r *http.Request) {
	var q Q
	if !decodeRequest(w, r, &q) {
		return
	}
	p, err := rt.params(&q)
	if err != nil {
		badRequest(w, err)
		return
	}
	data, o, err := rt.cached(s, r.Context(), p, rt.admit)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	s.writeCached(w, data, o)
}

// cached answers p from the solve cache, solving on a miss, under
// admission control when admit is set: the route's own requests pass
// rt.admit, and sweep points, whose request already holds a slot for
// the whole fan-out, pass false.
func (rt *route[Q, P]) cached(s *Server, ctx context.Context, p P, admit bool) ([]byte, outcome, error) {
	k := newKeyWriter()
	defer k.free()
	return s.cache.get(k.key(rt.tag, &p), func() ([]byte, error) {
		if !admit {
			return rt.render(s, p)
		}
		return s.admit(ctx, func() ([]byte, error) { return rt.render(s, p) })
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
// for the duration of the solve, and records the occupancy as the
// request's service time. The request deadline is armed here, where a
// request first can block on its context, so it bounds admission wait
// plus solve, and cache hits never start a timer.
func (s *Server) admit(ctx context.Context, solve func() ([]byte, error)) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer s.beginService(ctx)()
	return solve()
}
