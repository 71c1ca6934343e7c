package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/leakguard"
)

// newTestServer builds a Server on a fake clock and mounts it on an
// httptest.Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	if cfg.Clock == nil {
		cfg.Clock = fake
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, fake
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing response: %v", err)
	}
	return resp, string(data)
}

const validAllToAll = `{"p":32,"w":1000,"st":40,"so":200,"c2":0}`

// TestHandlerTable drives every endpoint through its request-shape and
// validation failure modes.
func TestHandlerTable(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		wantInBody       string
	}{
		{"alltoall ok", "/v1/alltoall", validAllToAll, 200, `"r":`},
		{"alltoall with n", "/v1/alltoall", `{"p":32,"w":1000,"st":40,"so":200,"n":100}`, 200, `"total_runtime":`},
		{"alltoall shadow priority", "/v1/alltoall", `{"p":32,"w":1000,"st":40,"so":200,"priority":"shadow"}`, 200, `"r":`},
		{"bad JSON", "/v1/alltoall", `{"p":32,`, 400, "decoding request"},
		{"unknown field", "/v1/alltoall", `{"p":32,"w":1000,"so":200,"bogus":1}`, 400, "bogus"},
		{"trailing garbage", "/v1/alltoall", validAllToAll + ` {"again":true}`, 400, "trailing data"},
		{"infinite parameter", "/v1/alltoall", `{"p":32,"w":1e999,"so":200}`, 400, "decoding request"},
		{"NaN literal", "/v1/alltoall", `{"p":32,"w":NaN,"so":200}`, 400, "decoding request"},
		{"zero So rejected by Validate", "/v1/alltoall", `{"p":32,"w":1000}`, 400, "handlers must take positive time"},
		{"negative W rejected by Validate", "/v1/alltoall", `{"p":32,"w":-5,"so":200}`, 400, "negative W"},
		{"P too small", "/v1/alltoall", `{"p":1,"w":1000,"so":200}`, 400, "at least 2 processors"},
		{"bad priority", "/v1/alltoall", `{"p":32,"w":1000,"so":200,"priority":"fifo"}`, 400, "unknown priority"},
		{"negative n", "/v1/alltoall", `{"p":32,"w":1000,"so":200,"n":-1}`, 400, "negative request count"},
		{"workpile ok", "/v1/workpile", `{"p":32,"ps":8,"w":1500,"st":40,"so":131}`, 200, `"x":`},
		{"workpile optimal split", "/v1/workpile", `{"p":32,"ps":0,"w":1500,"st":40,"so":131}`, 200, `"optimal_servers":`},
		{"workpile bad split", "/v1/workpile", `{"p":32,"ps":40,"w":1500,"so":131}`, 400, "Ps"},
		{"bounds ok", "/v1/bounds", `{"p":32,"ps":8,"w":1500,"st":40,"so":131}`, 200, `"server_bound":`},
		{"general ok", "/v1/general", `{"p":4,"w":[1000,1000,1000,1000],"v":[[0,0.3333333333,0.3333333333,0.3333333333],[0.3333333333,0,0.3333333333,0.3333333333],[0.3333333333,0.3333333333,0,0.3333333333],[0.3333333333,0.3333333333,0.3333333333,0]],"st":40,"so":[200],"c2":0}`, 200, `"total_x":`},
		{"general shape mismatch", "/v1/general", `{"p":4,"w":[1000],"v":[[0]],"st":40,"so":[200]}`, 400, "len(W)"},
		{"fit too few observations", "/v1/fit", `{"p":32,"c2":0,"observations":[{"w":0,"r":900},{"w":64,"r":960}]}`, 400, "at least 3"},
		{"fit single processor", "/v1/fit", `{"p":1,"c2":0,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`, 400, "at least 2 processors"},
		{"sweep ok", "/v1/sweep", `{"points":[` + validAllToAll + `,{"p":32,"w":2000,"st":40,"so":200,"c2":0}],"jobs":2}`, 200, `"results":`},
		{"sweep empty", "/v1/sweep", `{"points":[]}`, 400, "at least one point"},
		{"sweep bad point", "/v1/sweep", `{"points":[{"p":1,"w":10,"so":1}]}`, 400, "point 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, c.status, body)
			}
			if !strings.Contains(body, c.wantInBody) {
				t.Errorf("body %q missing %q", body, c.wantInBody)
			}
		})
	}
}

// TestInvalidFitTakesNoSlot: a fit its arguments rule out answers 400
// before it is admitted, so it records no service sample for the
// calibrator.
func TestInvalidFitTakesNoSlot(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	before := s.met.service.Snapshot().Count
	for _, body := range []string{
		`{"p":32,"c2":0,"observations":[{"w":0,"r":900},{"w":64,"r":960}]}`,
		`{"p":1,"c2":0,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`,
		`{"p":32,"c2":-1,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`,
		`{"p":32,"c2":0,"observations":[{"w":0,"r":-900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`,
	} {
		if resp, got := post(t, ts.URL+"/v1/fit", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body: %s", body, resp.StatusCode, got)
		}
	}
	if after := s.met.service.Snapshot().Count; after != before {
		t.Errorf("invalid fits recorded %d service samples, want none", after-before)
	}
}

// TestSolveErrorTaxonomy pins the error classification: admission
// rejections keep their status and Retry-After, context expiry is a
// retryable 503, and everything else is a model infeasibility (422).
func TestSolveErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter string
	}{
		{"shed queue full", &shedError{status: 503, retryAfter: 2, reason: "queue full"}, 503, "2"},
		{"shed queue wait", &shedError{status: 429, retryAfter: 1, reason: "queue wait exceeded"}, 429, "1"},
		{"wrapped shed", fmt.Errorf("solving: %w", &shedError{status: 429, retryAfter: 3, reason: "x"}), 429, "3"},
		{"deadline", context.DeadlineExceeded, 503, "1"},
		{"canceled", context.Canceled, 503, "1"},
		{"model infeasible", errors.New("core: saturated"), 422, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeSolveError(rec, c.err)
			if rec.Code != c.status {
				t.Errorf("status = %d, want %d", rec.Code, c.status)
			}
			if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, c.retryAfter)
			}
			var body errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Errorf("error envelope missing: %s (%v)", rec.Body.Bytes(), err)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/alltoall")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
}

// TestSweepPointCap: a sweep larger than the configured cap is a 400,
// not a giant fan-out.
func TestSweepPointCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxSweepPoints: 2})
	points := make([]string, 3)
	for i := range points {
		points[i] = fmt.Sprintf(`{"p":32,"w":%d,"st":40,"so":200}`, 100+i)
	}
	resp, body := post(t, ts.URL+"/v1/sweep", `{"points":[`+strings.Join(points, ",")+`]}`)
	if resp.StatusCode != 400 || !strings.Contains(body, "cap") {
		t.Fatalf("status %d body %s, want 400 mentioning the cap", resp.StatusCode, body)
	}
}

// TestCacheHitBytesIdentical: the cached response is byte-for-byte the
// cold response; the outcome travels only in the X-Lopc-Cache header.
func TestCacheHitBytesIdentical(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cold, coldBody := post(t, ts.URL+"/v1/alltoall", validAllToAll)
	hit, hitBody := post(t, ts.URL+"/v1/alltoall", validAllToAll)
	if cold.StatusCode != 200 || hit.StatusCode != 200 {
		t.Fatalf("statuses %d/%d, want 200/200", cold.StatusCode, hit.StatusCode)
	}
	if got := cold.Header.Get("X-Lopc-Cache"); got != "miss" {
		t.Errorf("first solve cache header = %q, want miss", got)
	}
	if got := hit.Header.Get("X-Lopc-Cache"); got != "hit" {
		t.Errorf("second solve cache header = %q, want hit", got)
	}
	if coldBody != hitBody {
		t.Errorf("cache hit bytes differ from cold solve:\ncold: %s\nhit:  %s", coldBody, hitBody)
	}
}

// TestCacheQuantization: parameters that differ below the quantization
// resolution share one cache entry.
func TestCacheQuantization(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	_, _ = post(t, ts.URL+"/v1/alltoall", validAllToAll)
	resp, _ := post(t, ts.URL+"/v1/alltoall", `{"p":32,"w":1000.0000000001,"st":40,"so":200,"c2":0}`)
	if got := resp.Header.Get("X-Lopc-Cache"); got != "hit" {
		t.Errorf("sub-resolution W change: cache = %q, want hit", got)
	}
	resp, _ = post(t, ts.URL+"/v1/alltoall", `{"p":32,"w":1001,"st":40,"so":200,"c2":0}`)
	if got := resp.Header.Get("X-Lopc-Cache"); got != "miss" {
		t.Errorf("real W change: cache = %q, want miss", got)
	}
}

// TestSweepUsesCache: sweep points land in the same cache as single
// solves, so a sweep over an already-solved point reuses it.
func TestSweepUsesCache(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	_, single := post(t, ts.URL+"/v1/alltoall", validAllToAll)
	resp, body := post(t, ts.URL+"/v1/sweep", `{"points":[`+validAllToAll+`]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sweep struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &sweep); err != nil {
		t.Fatalf("sweep response: %v", err)
	}
	if len(sweep.Results) != 1 {
		t.Fatalf("%d results, want 1", len(sweep.Results))
	}
	if got, want := string(sweep.Results[0]), strings.TrimSuffix(single, "\n"); got != want {
		t.Errorf("sweep result differs from single solve:\nsweep:  %s\nsingle: %s", got, want)
	}
	if hits := s.met.cacheHits.Value(); hits == 0 {
		t.Error("sweep over a cached point recorded no cache hit")
	}
}

// TestMetricsDocument: /metrics is one JSON document carrying the
// counters the test can force deterministically.
func TestMetricsDocument(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	_, _ = post(t, ts.URL+"/v1/alltoall", validAllToAll)
	_, _ = post(t, ts.URL+"/v1/alltoall", validAllToAll)
	_, _ = post(t, ts.URL+"/v1/alltoall", `{"bad json`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	var doc metricsJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, data)
	}
	if doc.Cache.Hits != 1 || doc.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", doc.Cache.Hits, doc.Cache.Misses)
	}
	if doc.Cache.Size != 1 {
		t.Errorf("cache size = %d, want 1", doc.Cache.Size)
	}
	var a2a *routeJSON
	for i := range doc.Routes {
		if doc.Routes[i].Route == "/v1/alltoall" {
			a2a = &doc.Routes[i]
		}
	}
	if a2a == nil {
		t.Fatalf("metrics missing /v1/alltoall route: %s", data)
	}
	if a2a.Requests != 3 || a2a.Errors != 1 {
		t.Errorf("alltoall requests/errors = %d/%d, want 3/1", a2a.Requests, a2a.Errors)
	}
	if a2a.LatencyUS.Count != 3 {
		t.Errorf("latency count = %d, want 3", a2a.LatencyUS.Count)
	}
	if doc.InFlight != 0 || doc.QueueDepth != 0 {
		t.Errorf("idle gauges in_flight=%d queue_depth=%d, want 0/0", doc.InFlight, doc.QueueDepth)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	s.StartDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", resp.StatusCode)
	}
}

// TestGracefulDrain: draining waits for in-flight requests on the
// injected clock, rejects new work, and completes once the last
// request finishes.
func TestGracefulDrain(t *testing.T) {
	s, ts, fake := newTestServer(t, Config{Workers: 1, QueueDepth: 8, QueueWait: time.Minute})

	// Occupy the single solver slot so an incoming request stays in
	// flight (queued inside admission) for as long as the test wants.
	release, err := s.adm.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("occupying worker slot: %v", err)
	}

	reqDone := make(chan string, 1)
	go func() {
		_, body := postNoT(ts.URL+"/v1/alltoall", validAllToAll)
		reqDone <- body
	}()
	waitFor(t, func() bool { return s.met.queueDepth.Value() == 1 })

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(time.Hour) }()
	waitFor(t, func() bool { return s.draining.Load() })

	// New work is rejected while draining.
	resp, _ := post(t, ts.URL+"/v1/alltoall", validAllToAll)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain = %d, want 503", resp.StatusCode)
	}
	select {
	case <-drained:
		t.Fatal("drain completed with a request still in flight")
	default:
	}

	release() // let the in-flight request solve
	if body := <-reqDone; !strings.Contains(body, `"r":`) {
		t.Errorf("in-flight request failed during drain: %s", body)
	}
	select {
	case ok := <-drained:
		if !ok {
			t.Error("drain reported timeout despite all requests finishing")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete after the last request finished")
	}
	_ = fake
}

// TestDrainTimeout: a drain that cannot finish reports failure once
// the fake clock passes the budget.
func TestDrainTimeout(t *testing.T) {
	s, ts, fake := newTestServer(t, Config{Workers: 1, QueueDepth: 8, QueueWait: time.Hour})
	release, err := s.adm.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan string, 1)
	go func() {
		_, body := postNoT(ts.URL+"/v1/alltoall", validAllToAll)
		reqDone <- body
	}()
	waitFor(t, func() bool { return s.met.queueDepth.Value() == 1 })

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(time.Minute) }()
	// Advance only once both timers are armed, the queued request's
	// queue-wait timer and Drain's budget; a timer armed after the
	// Advance would never fire.
	waitFor(t, func() bool { return fake.Pending() == 2 })
	fake.Advance(2 * time.Minute)
	select {
	case ok := <-drained:
		if ok {
			t.Error("drain reported success with a request still in flight")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not observe its fake-clock timeout")
	}
	release()
	<-reqDone
}

// TestDrainJoinsItsWaiter: Drain's waiter goroutine exits when Drain
// completes cleanly, and after a timed-out Drain it exits as soon as
// the last in-flight request finishes.
func TestDrainJoinsItsWaiter(t *testing.T) {
	fake := clock.NewFake(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	base := runtime.NumGoroutine()
	if !New(Config{Clock: fake}).Drain(time.Hour) {
		t.Fatal("drain of an idle server timed out")
	}
	leakguard.Settle(t, base, "a clean drain")

	s := New(Config{Clock: fake})
	s.active.Add(1) // one request in flight
	if s.Drain(0) {
		t.Fatal("drain reported success with a request still in flight")
	}
	s.active.Done()
	leakguard.Settle(t, base, "a timed-out drain's last request")
}

// postNoT is post for goroutines that must not call t.Fatal.
func postNoT(url, body string) (*http.Response, string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, "error: " + err.Error()
	}
	data, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp, string(data)
}

// waitFor polls cond (real time — it synchronizes goroutine progress,
// not clock behaviour).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentClientsRaceClean hammers the server with 64 concurrent
// clients across every endpoint; run under -race this is the
// acceptance stress test. Every response must be a known status.
func TestConcurrentClientsRaceClean(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Workers: 4, QueueDepth: 16, QueueWait: 50 * time.Millisecond,
		Clock: clock.System,
	})
	const clients = 64
	const perClient = 12
	bodies := []struct{ path, body string }{
		{"/v1/alltoall", validAllToAll},
		{"/v1/alltoall", `{"p":64,"w":500,"st":40,"so":150,"c2":1}`},
		{"/v1/workpile", `{"p":32,"ps":8,"w":1500,"st":40,"so":131}`},
		{"/v1/bounds", `{"p":32,"ps":8,"w":1500,"st":40,"so":131}`},
		{"/v1/sweep", `{"points":[` + validAllToAll + `,{"p":32,"w":123,"st":40,"so":200}],"jobs":2}`},
		{"/v1/fit", `{"p":16,"c2":0,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`},
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := bodies[(c+i)%len(bodies)]
				resp, body := postNoT(ts.URL+req.path, req.body)
				if resp == nil {
					errs <- body
					continue
				}
				switch resp.StatusCode {
				case 200, 429, 503:
				default:
					errs <- fmt.Sprintf("%s: status %d: %s", req.path, resp.StatusCode, body)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestAllToAllHugeC2: a C² far past the old β bracket answers 200 on
// two identical requests in a row, the second from the cache.
func TestAllToAllHugeC2(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	const body = `{"p":8,"w":10,"st":5,"so":2,"c2":1e13}`
	resp, first := post(t, ts.URL+"/v1/alltoall", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, first)
	}
	resp, second := post(t, ts.URL+"/v1/alltoall", body)
	if resp.StatusCode != http.StatusOK || second != first {
		t.Fatalf("second request: status %d, body %s; want 200 and %s", resp.StatusCode, second, first)
	}
	if got := resp.Header.Get("X-Lopc-Cache"); got != "hit" {
		t.Errorf("second request X-Lopc-Cache = %q, want hit", got)
	}
}

// TestAllToAllTotalRuntime: total_runtime is core.TotalRuntime's value
// to the byte, for several request counts.
func TestAllToAllTotalRuntime(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	p := core.Params{P: 32, W: 1000, St: 40, So: 200, C2: 0.5}
	for _, n := range []int{1, 7, 100, 123457} {
		want, err := core.TotalRuntime(p, n)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"p":32,"w":1000,"st":40,"so":200,"c2":0.5,"n":%d}`, n)
		resp, got := post(t, ts.URL+"/v1/alltoall", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, got)
		}
		if !strings.HasSuffix(got, `"total_runtime":`+string(enc)+"}\n") {
			t.Errorf("n=%d: body %s does not end in total_runtime %s", n, got, enc)
		}
	}
}

// TestDispatchMatchesMux sends odd requests through Server.Handler,
// whose route table answers API paths itself, and through the bare mux
// behind it: both must give the same status, Location and Allow
// headers, and body. The pprof index lists live counts, so its body is
// not compared.
func TestDispatchMatchesMux(t *testing.T) {
	for _, pprof := range []bool{false, true} {
		s := New(Config{Pprof: pprof, Calibration: true, Clock: clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))})
		for _, c := range []struct {
			method, target, body string
			live                 bool
		}{
			{method: "POST", target: "/v1/alltoall", body: validAllToAll},
			{method: "POST", target: "/v1//alltoall", body: validAllToAll},
			{method: "POST", target: "/v1/alltoall/", body: validAllToAll},
			{method: "POST", target: "/v1/./alltoall?x=1", body: validAllToAll},
			{method: "POST", target: "/v1/%61lltoall", body: validAllToAll},
			{method: "POST", target: "/v1/alltoall", body: `{"p":1}`},
			{method: "GET", target: "/v1/alltoall"},
			{method: "HEAD", target: "/v1/alltoall"},
			{method: "GET", target: "/v1/general"},
			{method: "HEAD", target: "/v1/sweep"},
			{method: "PUT", target: "/v1/fit", body: "{}"},
			{method: "CONNECT", target: "/v1/alltoall"},
			{method: "GET", target: "/v1/calibration"},
			{method: "POST", target: "/v1/calibration"},
			{method: "GET", target: "/v1/whatif"},
			{method: "POST", target: "/v1/nowhere", body: "{}"},
			{method: "GET", target: "/v1"},
			{method: "GET", target: "/"},
			{method: "GET", target: "/healthz"},
			{method: "GET", target: "/debug/pprof/", live: true},
			{method: "GET", target: "/debug/pprof"},
			{method: "GET", target: "/debug/pprof/cmdline"},
		} {
			name := fmt.Sprintf("pprof=%v %s %s", pprof, c.method, c.target)
			serve := func(h http.Handler) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
				return rec
			}
			got, want := serve(s.Handler()), serve(s.router.mux)
			if got.Code != want.Code {
				t.Errorf("%s: status %d, mux %d", name, got.Code, want.Code)
			}
			for _, h := range []string{"Location", "Allow"} {
				if got.Header().Get(h) != want.Header().Get(h) {
					t.Errorf("%s: %s %q, mux %q", name, h, got.Header().Get(h), want.Header().Get(h))
				}
			}
			if !c.live && got.Body.String() != want.Body.String() {
				t.Errorf("%s: body %q, mux %q", name, got.Body, want.Body)
			}
		}
	}
}
