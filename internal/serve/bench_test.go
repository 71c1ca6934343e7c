package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/allocguard"
	"repro/internal/core"
)

func benchServer(b *testing.B, cacheSize int) http.Handler {
	b.Helper()
	return New(Config{Workers: 8, QueueDepth: 256, CacheSize: cacheSize}).Handler()
}

func benchPost(h http.Handler, path, body string) int {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// benchFitBody is a small request whose solve — the (St, So)
// calibration search, thousands of AMVA solves — is genuinely
// expensive (~ms), so the cold/cached ratio measures the cache, not
// HTTP plumbing.
const benchFitBody = `{"p":16,"c2":0,"observations":[{"w":0,"r":900},{"w":256,"r":1150},{"w":512,"r":1400},{"w":1024,"r":1900},{"w":2048,"r":2950}]}`

// BenchmarkServeSolveCold measures the full request path with
// memoization disabled: decode, admission, calibration solve, encode.
// Each iteration re-runs the whole solve.
func BenchmarkServeSolveCold(b *testing.B) {
	h := benchServer(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(h, "/v1/fit", benchFitBody); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeSolveCached is the same request on a hot cache key:
// decode, key, LRU hit, write. The ratio to ServeSolveCold is the
// cache's speedup on a hot parameter point (acceptance floor: 10x).
func BenchmarkServeSolveCached(b *testing.B) {
	h := benchServer(b, 1024)
	if code := benchPost(h, "/v1/fit", benchFitBody); code != http.StatusOK {
		b.Fatal("warm-up solve failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(h, "/v1/fit", benchFitBody); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeAllToAllCold / Cached are the same pair on the cheap
// scalar solver, where HTTP and JSON plumbing dominate — the lower
// bound on what caching can buy.
func BenchmarkServeAllToAllCold(b *testing.B) {
	h := benchServer(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"p":32,"w":%d,"st":40,"so":200}`, 100+i)
		if code := benchPost(h, "/v1/alltoall", body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

func BenchmarkServeAllToAllCached(b *testing.B) {
	h := benchServer(b, 1024)
	if code := benchPost(h, "/v1/alltoall", validAllToAll); code != http.StatusOK {
		b.Fatal("warm-up solve failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(h, "/v1/alltoall", validAllToAll); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeParallelClients measures aggregate throughput with
// GOMAXPROCS client goroutines hammering a mixed working set (16 hot
// points, cache on) — the serving-path contention benchmark.
func BenchmarkServeParallelClients(b *testing.B) {
	h := benchServer(b, 1024)
	bodies := make([]string, 16)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"p":32,"w":%d,"st":40,"so":200}`, 500+i)
		if code := benchPost(h, "/v1/alltoall", bodies[i]); code != http.StatusOK {
			b.Fatal("warm-up solve failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%len(bodies)]
			i++
			if code := benchPost(h, "/v1/alltoall", body); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
}

// BenchmarkServeSweep measures one 64-point sweep request end to end,
// server side only, fanned out through internal/runner. The cache is
// off, so every iteration solves all 64 points of the one body, which
// is built before the timer starts.
func BenchmarkServeSweep(b *testing.B) {
	points := make([]string, 64)
	for j := range points {
		points[j] = fmt.Sprintf(`{"p":32,"w":%d,"st":40,"so":200}`, 1000+j)
	}
	c := newReplay(New(Config{Workers: 8, QueueDepth: 256, CacheSize: -1}), "/v1/sweep")
	c.data = []byte(`{"points":[` + strings.Join(points, ",") + `],"jobs":8}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := c.serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// replayBody is a request body that rewinds without allocating, so the
// stage benchmarks and the allocation guard count only the server's
// own allocations.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// sinkWriter is a ResponseWriter that reuses one header map and keeps
// only the status.
type sinkWriter struct {
	h      http.Header
	status int
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *sinkWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

func (w *sinkWriter) reset() {
	clear(w.h)
	w.status = 0
}

// benchGeneralBody is a /v1/general request shaped like the repository
// benchmark's: P = 8, homogeneous visits, full-precision floats.
var benchGeneralBody = func() string {
	const n = 8
	q := generalRequest{P: n, V: core.HomogeneousVisits(n), St: 41.27318846, So: []float64{173.5310926553}, C2: 0.6180339887}
	for i := 0; i < n; i++ {
		q.W = append(q.W, 200+371.3713713713*float64(i))
	}
	data, err := json.Marshal(q)
	if err != nil {
		panic(err)
	}
	return string(data)
}()

// replay is one server-side request replay: a server, and one
// reusable request and writer that send it data.
type replay struct {
	s    *Server
	h    http.Handler
	req  *http.Request
	body *replayBody
	data []byte
	w    *sinkWriter
}

func newReplay(s *Server, path string) *replay {
	return &replay{
		s: s, h: s.Handler(),
		req:  httptest.NewRequest(http.MethodPost, path, nil),
		body: &replayBody{},
		w:    &sinkWriter{h: http.Header{}},
	}
}

// newCachedHit returns a replay of a hot key: a server whose cache
// already holds body's answer.
func newCachedHit(tb testing.TB, path, body string) *replay {
	tb.Helper()
	c := newReplay(New(Config{Workers: 2, QueueDepth: 8}), path)
	c.data = []byte(body)
	if code := c.serve(); code != http.StatusOK {
		tb.Fatalf("warm-up %s: status %d", path, code)
	}
	if code := c.serve(); code != http.StatusOK || c.w.h.Get("X-Lopc-Cache") != "hit" {
		tb.Fatalf("replay %s: status %d, cache %q; want a 200 hit", path, code, c.w.h.Get("X-Lopc-Cache"))
	}
	return c
}

// serve replays the request once and returns the response status.
func (c *replay) serve() int {
	c.body.Reset(c.data)
	c.req.Body = c.body
	c.w.reset()
	c.h.ServeHTTP(c.w, c.req)
	return c.w.status
}

// serveFresh replays the request with body gen(i), written over the
// previous body's bytes, which only the first call needs to allocate.
func (c *replay) serveFresh(gen func([]byte, int) []byte, i int) int {
	c.data = gen(c.data[:0], i)
	return c.serve()
}

// freshBody returns a body generator that writes prefix, then base+i,
// then suffix: a request whose cache key no other i shares.
func freshBody(prefix string, base int, suffix string) func([]byte, int) []byte {
	return func(b []byte, i int) []byte {
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(base+i), 10)
		return append(b, suffix...)
	}
}

// freshSweep writes a 32-point, 2-job sweep whose points no other i's
// sweep shares.
func freshSweep(b []byte, i int) []byte {
	b = append(b, `{"points":[`...)
	for j := 0; j < 32; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":32,"w":`...)
		b = strconv.AppendInt(b, int64(1000+32*i+j), 10)
		b = append(b, `,"st":40,"so":200}`...)
	}
	return append(b, `],"jobs":2}`...)
}

// freshGeneral writes benchGeneralBody with its first w, 200, moved to
// 200+i.
var freshGeneral = func() func([]byte, int) []byte {
	head, tail, ok := strings.Cut(benchGeneralBody, `"w":[200,`)
	if !ok {
		panic("benchGeneralBody's w does not start at 200")
	}
	return freshBody(head+`"w":[`, 200, ","+tail)
}()

// missSamples holds, for every route in solveRoutes and /v1/sweep, a
// generator of valid bodies, each a fresh cache key, and the most
// allocations a miss on one may make, server side, as measured with the
// response plans, the cached-bytes sweep, timer-free admission and
// solvers that hand the observer's own completion func its stats
// (BENCH_serve.json "results").
var missSamples = map[string]struct {
	body      func([]byte, int) []byte
	maxAllocs float64
}{
	"/v1/alltoall": {freshBody(`{"p":32,"w":`, 100, `,"st":40,"so":200}`), 9},
	"/v1/workpile": {freshBody(`{"p":32,"ps":8,"w":`, 1500, `,"st":40,"so":131,"c2":0.5}`), 9},
	"/v1/general":  {freshGeneral, 13},
	"/v1/bounds":   {freshBody(`{"p":32,"ps":8,"w":`, 1500, `,"st":40,"so":131,"c2":0.5}`), 8},
	"/v1/fit":      {freshBody(`{"p":16,"c2":`, 1, `e-9,"observations":[{"w":0,"r":900},{"w":256,"r":1150},{"w":512,"r":1400},{"w":1024,"r":1900},{"w":2048,"r":2950}]}`), 98},
	"/v1/lock":     {freshBody(`{"threads":8,"w":`, 800, `,"st":20,"so":100,"c2":1}`), 9},
	"/v1/lockfree": {freshBody(`{"threads":8,"w":`, 400, `,"st":5,"so":60,"c2":1}`), 10},
	"/v1/sweep":    {freshSweep, 245},
}

// TestMissAllocs guards the allocation count of a cache miss on every
// route in the table and on /v1/sweep: each iteration sends a fresh key
// through Server.Handler. Like the hit ceilings, they are "at most"
// bounds that a pool dropping its buffer at a collection can exceed by
// one now and then.
func TestMissAllocs(t *testing.T) {
	if allocguard.Race {
		t.Skip("the race detector changes allocation counts")
	}
	paths := []string{"/v1/sweep"}
	for _, e := range solveRoutes {
		paths = append(paths, e.info().path)
	}
	for _, path := range paths {
		sample, ok := missSamples[path]
		if !ok {
			t.Errorf("route %s has no entry in missSamples", path)
			continue
		}
		c := newReplay(New(Config{Workers: 2, QueueDepth: 8}), path)
		i := 0
		got := testing.AllocsPerRun(50, func() {
			code := c.serveFresh(sample.body, i)
			i++
			if code != http.StatusOK || path != "/v1/sweep" && c.w.h.Get("X-Lopc-Cache") != "miss" {
				t.Fatalf("%s %s: status %d, cache %q; want a 200 miss", path, c.data, code, c.w.h.Get("X-Lopc-Cache"))
			}
		})
		t.Logf("%s miss: %.1f allocs per request", path, got)
		if got > sample.maxAllocs {
			t.Errorf("%s miss: %.1f allocs per request, want at most %.0f", path, got, sample.maxAllocs)
		}
	}
}

// Allocation ceilings of one cached request, server side only, as
// measured after route-table dispatch, the argument-passed timing
// carrier and pooled request values (BENCH_serve.json "previous"): the
// instrument wrapper's status-and-timing record and its MaxBytesReader,
// plus, on /v1/fit, the observations its params convert. They are "at
// most" bounds: sync.Pool may drop a buffer or a request value at a
// collection, which costs an extra allocation now and then.
const (
	maxAllocsCachedScalar = 2 // the six scalar routes, /v1/general too
	maxAllocsCachedFit    = 3
)

// TestCachedHitAllocs guards the allocation count of a cached hit on
// every route in the table against regressions of the request path.
func TestCachedHitAllocs(t *testing.T) {
	if allocguard.Race {
		t.Skip("the race detector changes allocation counts")
	}
	for _, e := range solveRoutes {
		path := e.info().path
		sample, ok := routeSamples[path]
		if !ok {
			t.Errorf("route %s has no entry in routeSamples", path)
			continue
		}
		hit := newCachedHit(t, path, sample.body)
		got := testing.AllocsPerRun(200, func() {
			if code := hit.serve(); code != http.StatusOK {
				t.Fatalf("%s: status %d", path, code)
			}
		})
		t.Logf("%s cached hit: %.1f allocs per request", path, got)
		if got > sample.maxAllocs {
			t.Errorf("%s cached hit: %.1f allocs per request, want at most %.0f", path, got, sample.maxAllocs)
		}
	}
}

// BenchmarkServeStages is the per-stage cost ledger of a request. The
// miss rows, for /v1/alltoall, /v1/general and /v1/fit, time the stages
// only a cache miss runs: solve (observed by the server's
// registry-backed recorder), render (the response plan's bytes) and,
// for comparison, marshal (json.Marshal of the same response); admit
// takes and frees a free solver slot, and total sends a fresh key
// through Server.Handler each iteration, writing its body over the
// last one's bytes. sweep/write joins the 32 cached bodies of a sweep
// into its response and writes it. The cached rows time dispatch,
// decode, key, cache lookup, write and the instrument wrapper, each on
// its own, then the whole server-side request, for the cached
// /v1/alltoall and /v1/general paths. dispatch is the route table's
// lookup of the path, and dispatch-mux the ServeMux search it spares a
// request, each in front of a handler that does nothing. decode reads
// the body into a pooled request value, as the route does.
func BenchmarkServeStages(b *testing.B) {
	for _, c := range []struct{ name, path, body string }{
		{"alltoall-miss", "/v1/alltoall", validAllToAll},
		{"general-miss", "/v1/general", benchGeneralBody},
		{"fit-miss", "/v1/fit", benchFitBody},
	} {
		s := New(Config{Workers: 2, QueueDepth: 8})
		rt := routeAt(c.path)
		p, err := rt.parse([]byte(c.body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := rt.solveParsed(s, p)
		if err != nil {
			b.Fatal(err)
		}
		miss, gen, i := newReplay(s, c.path), missSamples[c.path].body, 0
		stages := []struct {
			name string
			run  func()
		}{
			{"solve", func() {
				if err := rt.solveOnly(s, p); err != nil {
					b.Fatal(err)
				}
			}},
			{"render", func() {
				if _, err := rt.renderSolved(out); err != nil {
					b.Fatal(err)
				}
			}},
			{"marshal", func() {
				if _, err := json.Marshal(out); err != nil {
					b.Fatal(err)
				}
			}},
			{"admit", func() {
				if err := s.admit(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
				s.endService(nil, s.clk.Now())
			}},
			{"total", func() {
				if code := miss.serveFresh(gen, i); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
				i++
			}},
		}
		for _, st := range stages {
			b.Run(c.name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.run()
				}
			})
		}
	}
	b.Run("sweep/write", func(b *testing.B) {
		s := New(Config{Workers: 2, QueueDepth: 8})
		var results [][]byte
		for i := 0; i < 32; i++ {
			data, _, err := allToAll.cached(s, context.Background(), nil, allToAllParams{
				Params: core.Params{P: 32, W: float64(1000 + i), St: 40, So: 200},
			}, false)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, data)
		}
		w := &sinkWriter{h: http.Header{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.reset()
			w.Header()["Content-Type"] = jsonContentType
			_, _ = w.Write(sweepBody(results, 2))
		}
	})
	for _, c := range []struct{ name, path, body string }{
		{"alltoall", "/v1/alltoall", validAllToAll},
		{"general", "/v1/general", benchGeneralBody},
	} {
		hit := newCachedHit(b, c.path, c.body)
		rt := routeAt(c.path)
		body := &replayBody{}
		decode := func() {
			body.Reset(hit.data)
			if err := rt.decodePooled(body); err != nil {
				b.Fatal(err)
			}
		}
		p, err := rt.parse(hit.data)
		if err != nil {
			b.Fatal(err)
		}
		kw := &keyWriter{}
		key := append([]byte(nil), rt.keyOf(kw, p)...)
		data, _, err := hit.s.cache.get(key, func() ([]byte, error) { return nil, errors.New("not cached") })
		if err != nil {
			b.Fatal(err)
		}
		noop := hit.s.instrument("/v1/stage-noop", func(http.ResponseWriter, *http.Request, *reqTiming) {})
		nothing := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
		table := &router{table: map[string]http.Handler{}, mux: http.NewServeMux()}
		mux := http.NewServeMux()
		for _, e := range solveRoutes {
			table.table[e.info().path] = nothing
			mux.Handle(e.info().path, nothing)
		}

		stages := []struct {
			name string
			run  func()
		}{
			{"dispatch", func() { table.ServeHTTP(hit.w, hit.req) }},
			{"dispatch-mux", func() { mux.ServeHTTP(hit.w, hit.req) }},
			{"decode", decode},
			{"key", func() { rt.keyOf(kw, p) }},
			{"lookup", func() {
				_, _, _ = hit.s.cache.get(key, func() ([]byte, error) { return nil, errors.New("not cached") })
			}},
			{"write", func() {
				hit.w.reset()
				hit.s.writeCached(hit.w, data, outcomeHit)
			}},
			{"instrument", func() {
				body.Reset(hit.data)
				hit.req.Body = body
				noop.ServeHTTP(hit.w, hit.req)
			}},
			{"total", func() { hit.serve() }},
		}
		for _, st := range stages {
			b.Run(c.name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.run()
				}
			})
		}
	}
}
