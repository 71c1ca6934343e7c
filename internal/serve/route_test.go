package serve

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// routeSamples holds, for every route in solveRoutes, a valid request
// body and the most allocations a cached hit on it may make. The
// route-table tests fail for a route that has no sample here.
var routeSamples = map[string]struct {
	body      string
	maxAllocs float64
}{
	"/v1/alltoall": {validAllToAll, maxAllocsCachedAllToAll},
	"/v1/workpile": {`{"p":32,"ps":8,"w":1500,"st":40,"so":131,"c2":0.5}`, maxAllocsCachedAllToAll},
	"/v1/general":  {benchGeneralBody, maxAllocsCachedGeneral},
	"/v1/bounds":   {`{"p":32,"ps":8,"w":1500,"st":40,"so":131,"c2":0.5}`, maxAllocsCachedAllToAll},
	"/v1/fit":      {benchFitBody, maxAllocsCachedFit},
	"/v1/lock":     {`{"threads":8,"w":800,"st":20,"so":100,"c2":1}`, maxAllocsCachedAllToAll},
	"/v1/lockfree": {`{"threads":8,"w":400,"st":5,"so":60,"c2":1}`, maxAllocsCachedAllToAll},
}

// testRoute is a table route with the test-only methods below, which
// reach the pipeline's first stages through the erased table.
type testRoute interface {
	endpoint
	decodeFresh(r io.Reader) (any, error)
	parse(body []byte) (any, error)
	keyOf(k *keyWriter, p any) []byte
	solveParsed(s *Server, p any) (any, error)
	paramsType() reflect.Type
}

func (rt *route[Q, P]) paramsType() reflect.Type { return reflect.TypeFor[P]() }

// decodeFresh reads r into a fresh request as decodeRequest does and
// returns a pointer to it.
func (rt *route[Q, P]) decodeFresh(r io.Reader) (any, error) {
	q := new(Q)
	d := decoderPool.Get().(*decoder)
	defer d.free()
	if err := d.load(r); err != nil {
		return nil, err
	}
	return q, rt.req.decode(d, q)
}

// keyOf renders into k the key of the params p points to, which must be
// of the route's params type.
func (rt *route[Q, P]) keyOf(k *keyWriter, p any) []byte { return rt.keys.key(k, rt.tag, p.(*P)) }

// parse decodes body and validates it into the route's params as serve
// does, returning a pointer to them.
func (rt *route[Q, P]) parse(body []byte) (any, error) {
	q, err := rt.decodeFresh(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	p, err := rt.params(q.(*Q))
	return &p, err
}

// solveParsed runs the route's solve on the params p points to, as a
// cache miss does before marshalling the response.
func (rt *route[Q, P]) solveParsed(s *Server, p any) (any, error) {
	return rt.solve(s, *p.(*P))
}

// sampleParams returns a fresh pointer to the params of e's sample
// request.
func sampleParams(t testing.TB, e endpoint) any {
	t.Helper()
	path := e.info().path
	sample, ok := routeSamples[path]
	if !ok {
		t.Fatalf("route %s has no entry in routeSamples", path)
	}
	p, err := e.(testRoute).parse([]byte(sample.body))
	if err != nil {
		t.Fatalf("route %s sample: %v", path, err)
	}
	return p
}

// routeAt returns the route mounted at path.
func routeAt(path string) testRoute {
	for _, e := range solveRoutes {
		if e.info().path == path {
			return e.(testRoute)
		}
	}
	panic("no route at " + path)
}

// routeKey renders the key the route at path gives the params p points
// to, which must be of the route's params type.
func routeKey(path string, p any) string {
	rt := routeAt(path)
	if got := reflect.TypeOf(p).Elem(); got != rt.paramsType() {
		panic(fmt.Sprintf("routeKey %s: params of type %s, want %s", path, got, rt.paramsType()))
	}
	return string(rt.keyOf(new(keyWriter), p))
}

// TestRouteTableTags: every route's tag is its index in the table, no
// path is mounted twice, and every route has a valid sample.
func TestRouteTableTags(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range solveRoutes {
		info := e.info()
		if int(info.tag) != i {
			t.Errorf("%s: tag %d, want its index %d", info.path, info.tag, i)
		}
		if seen[info.path] {
			t.Errorf("%s mounted twice", info.path)
		}
		seen[info.path] = true
		sampleParams(t, e)
	}
}

// TestPlansRejectUnhandledTypes: a type the decoder or the key writer
// cannot walk fails when its plan is compiled, at set-up, not in the
// middle of a request.
func TestPlansRejectUnhandledTypes(t *testing.T) {
	type count int
	for name, compile := range map[string]func(){
		"request: untagged field": func() { newRequestPlan[struct{ P int }]() },
		"request: named int": func() {
			newRequestPlan[struct {
				N count `json:"n"`
			}]()
		},
		"request: map": func() {
			newRequestPlan[struct {
				M map[string]int `json:"m"`
			}]()
		},
		"request: nested untagged": func() {
			newRequestPlan[struct {
				S []struct{ X int } `json:"s"`
			}]()
		},
		"key: string":  func() { newKeyPlan[struct{ S string }]() },
		"key: pointer": func() { newKeyPlan[struct{ P *float64 }]() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compiled without a panic", name)
				}
			}()
			compile()
		}()
	}
}
