package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// routeSamples holds, for every route in solveRoutes, a valid request
// body and the most allocations a cached hit on it may make. The
// route-table tests fail for a route that has no sample here.
var routeSamples = map[string]struct {
	body      string
	maxAllocs float64
}{
	"/v1/alltoall": {validAllToAll, maxAllocsCachedScalar},
	"/v1/workpile": {`{"p":32,"ps":8,"w":1500,"st":40,"so":131,"c2":0.5}`, maxAllocsCachedScalar},
	"/v1/general":  {benchGeneralBody, maxAllocsCachedScalar},
	"/v1/bounds":   {`{"p":32,"ps":8,"w":1500,"st":40,"so":131,"c2":0.5}`, maxAllocsCachedScalar},
	"/v1/fit":      {benchFitBody, maxAllocsCachedFit},
	"/v1/lock":     {`{"threads":8,"w":800,"st":20,"so":100,"c2":1}`, maxAllocsCachedScalar},
	"/v1/lockfree": {`{"threads":8,"w":400,"st":5,"so":60,"c2":1}`, maxAllocsCachedScalar},
}

// testRoute is a table route with the test-only methods below, which
// reach the pipeline's first stages through the erased table.
type testRoute interface {
	endpoint
	decodeFresh(r io.Reader) (any, error)
	decodePooled(r io.Reader) error
	parse(body []byte) (any, error)
	keyOf(k *keyWriter, p any) []byte
	solveParsed(s *Server, p any) (any, error)
	solveOnly(s *Server, p any) error
	renderSolved(out any) ([]byte, error)
	renderAgainstMarshal(fill func(reflect.Value)) (got, want []byte, errGot, errWant error)
	paramsType() reflect.Type
}

func (rt *route[Q, P, R]) paramsType() reflect.Type { return reflect.TypeFor[P]() }

// decodePooled reads r into a request from the route's pool, as serve
// does, and returns it to the pool.
func (rt *route[Q, P, R]) decodePooled(r io.Reader) error {
	q := rt.req.get()
	defer rt.req.put(q)
	return rt.decodeInto(r, q)
}

// decodeFresh reads r into a fresh request as decodeRequest does and
// returns a pointer to it.
func (rt *route[Q, P, R]) decodeFresh(r io.Reader) (any, error) {
	q := new(Q)
	return q, rt.decodeInto(r, q)
}

// decodeInto reads r into q as decodeRequest does.
func (rt *route[Q, P, R]) decodeInto(r io.Reader, q *Q) error {
	d := decoderPool.Get().(*decoder)
	defer d.free()
	if err := d.load(r); err != nil {
		return err
	}
	return rt.req.decode(d, q)
}

// keyOf renders into k the key of the params p points to, which must be
// of the route's params type.
func (rt *route[Q, P, R]) keyOf(k *keyWriter, p any) []byte { return rt.keys.key(k, rt.tag, p.(*P)) }

// parse decodes body and validates it into the route's params as serve
// does, returning a pointer to them.
func (rt *route[Q, P, R]) parse(body []byte) (any, error) {
	q, err := rt.decodeFresh(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	p, err := rt.params(q.(*Q))
	return &p, err
}

// solveParsed runs the route's solve on the params p points to, as a
// cache miss does before marshalling the response.
func (rt *route[Q, P, R]) solveParsed(s *Server, p any) (any, error) {
	return rt.solve(s, *p.(*P))
}

// solveOnly runs the route's solve on the params p points to and drops
// the response, which it so never boxes.
func (rt *route[Q, P, R]) solveOnly(s *Server, p any) error {
	_, err := rt.solve(s, *p.(*P))
	return err
}

// renderSolved renders out, a response solveParsed returned, through
// the route's response plan.
func (rt *route[Q, P, R]) renderSolved(out any) ([]byte, error) {
	v := out.(R)
	return rt.resp.render(&v)
}

// renderAgainstMarshal fills a response value with fill and renders it
// both through the route's response plan and with json.Marshal.
func (rt *route[Q, P, R]) renderAgainstMarshal(fill func(reflect.Value)) (got, want []byte, errGot, errWant error) {
	var v R
	fill(reflect.ValueOf(&v).Elem())
	got, errGot = rt.resp.render(&v)
	want, errWant = json.Marshal(v)
	return got, want, errGot, errWant
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

// selfMarshaled is a struct encoding/json writes through its own
// method, not field by field.
type selfMarshaled struct {
	X float64 `json:"x"`
}

func (selfMarshaled) MarshalJSON() ([]byte, error) { return []byte(`"x"`), nil }

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
		"request: two fields of one name": func() {
			compile(reflect.StructOf([]reflect.StructField{
				{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
				{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
			}), forRequest)
		},
		"key: string":        func() { newKeyPlan[struct{ S string }]() },
		"key: pointer":       func() { newKeyPlan[struct{ P *float64 }]() },
		"response: untagged": func() { newResponsePlan[struct{ X float64 }]() },
		"response: bool": func() {
			newResponsePlan[struct {
				B bool `json:"b"`
			}]()
		},
		"response: matrix": func() {
			newResponsePlan[struct {
				M [][]float64 `json:"m"`
			}]()
		},
		"response: omitempty float": func() {
			newResponsePlan[struct {
				X float64 `json:"x,omitempty"`
			}]()
		},
		"response: name to escape": func() {
			newResponsePlan[struct {
				X float64 `json:"a<b"`
			}]()
		},
		"response: marshaler": func() { newResponsePlan[selfMarshaled]() },
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

// TestPooledGeneralConcurrent sends /v1/general bodies at P = 2, 8 and
// 16 — valid ones with one So and with one per processor, and invalid
// ones — from 8 goroutines to one server whose small cache keeps both
// hits and misses coming, so pooled request values pass between sizes
// and between goroutines. Every answer must equal a fresh server's and
// what the route's own steps give on a value encoding/json decodes,
// which no pool touches (the pools are per route, shared by servers).
func TestPooledGeneralConcurrent(t *testing.T) {
	var bodies []string
	for _, n := range []int{2, 8, 16} {
		for i := 0; i < 3; i++ {
			q := generalRequest{P: n, V: core.HomogeneousVisits(n), St: 40 + float64(i), So: []float64{150 + float64(n)}, C2: 0.5}
			for j := 0; j < n; j++ {
				q.W = append(q.W, 500+97*float64(j+i))
			}
			if i == 2 {
				q.So = nil
				for j := 0; j < n; j++ {
					q.So = append(q.So, 120+float64(j))
				}
			}
			data, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(data))
		}
		bodies = append(bodies, fmt.Sprintf(`{"p":%d,"w":[1000],"v":[[0]],"so":[200]}`, n))
	}
	bodies = append(bodies, `{"p":2,"w":[1,2],"w":[null],"v":[[0,1],[1,0]],"so":[5]}`, `{"p":2,"v":null}`)

	serve := func(h http.Handler, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/general", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	type answer struct {
		code int
		body string
	}
	want := make([]answer, len(bodies))
	for i, body := range bodies {
		var q generalRequest
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		if p, err := q.params(); err != nil {
			badRequest(rec, err)
		} else if out, err := solveGeneral(New(Config{}), p); err != nil {
			writeSolveError(rec, err)
		} else {
			_ = writeJSON(rec, http.StatusOK, out)
		}
		want[i] = answer{rec.Code, rec.Body.String()}
		if code, got := serve(New(Config{}).Handler(), body); code != want[i].code || got != want[i].body {
			t.Fatalf("body %d %s: fresh server %d %q, want %d %q", i, body, code, got, want[i].code, want[i].body)
		}
	}

	h := New(Config{Workers: 2, QueueDepth: 64, CacheSize: 4}).Handler()
	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range bodies {
					i := (k*(c+1) + r) % len(bodies)
					if code, body := serve(h, bodies[i]); code != want[i].code || body != want[i].body {
						errs <- fmt.Errorf("body %d %s: status %d %q, fresh server %d %q", i, bodies[i], code, body, want[i].code, want[i].body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
