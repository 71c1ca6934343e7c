package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Window sizes. p50 and tail are taken over every scalar request of the
// run, so a window need not hold a tail of its own. A serve-hot window
// keeps its bodies live until its checks, so it is kept short: with
// 20,000 requests, peak RSS read 51–58 MB across runs. A serve-cold
// window holds exactly coldFits fits and coldSweeps sweeps (1% each) at
// random positions. They count in ops_per_s and cpu_ms_per_op but not
// in the percentiles: with them, p99 fell on the boundary between the
// multi-millisecond fits and sweeps, the requests that close a
// calibrator window (one in 256 solves) and the ordinary solves, and it
// jumped between them. serve-cold's tail is p98: about one scalar
// request in a hundred runs while a collection is marking, and how many
// depends on how fast the other core marks, so p99 moved by up to 64%
// between runs while p98 moved by 22%.
const (
	hotKeys    = 256
	hotWindow  = 4_000
	coldWindow = 2_000
	coldFits   = 20
	coldSweeps = 20
)

// hotRoutes is the scalar-solve mix both serve workloads replay.
var hotRoutes = []string{"alltoall", "workpile", "bounds", "general", "lock", "lockfree"}

// serveInst is a set-up serve workload: one in-process server driven by
// one closed-loop client.
type serveInst struct {
	srv     *serve.Server
	handler http.Handler
	clk     clock.Clock
	gen     *gen
	cold    bool
	// hot: the key set and each key's reference body from the warm fill.
	keys []call
	refs [][]byte
	// oracle solves cold requests directly for the check.
	oracle *oracle

	// batch state, reused across windows.
	calls   []call
	resp    respRecorder
	arena   []byte
	offsets []int // [start, end) offsets into arena per call

	// traced-half state.
	before map[string]float64
	fits   int
	// clientAllocs and clientBytes are the allocations the client's
	// own request construction costs per request, subtracted from the
	// serve.allocs_per_req and serve.bytes_per_req deltas.
	clientAllocs, clientBytes float64
}

func newServeInst(seed uint64, cold bool) *serveInst {
	srv := serve.New(serve.Config{Calibration: true, Clock: clock.System})
	return &serveInst{
		srv:     srv,
		handler: srv.Handler(),
		clk:     clock.System,
		gen:     &gen{r: rng.New(rng.SeedAt(seed, 1))},
		cold:    cold,
		oracle:  newOracle(),
		resp:    respRecorder{header: http.Header{}},
	}
}

// setupServeHot builds the server and warms its cache with every hot
// key, so each timed request is a cache hit.
func setupServeHot(seed uint64) (instance, error) {
	s := newServeInst(seed, false)
	keyGen := &gen{r: rng.New(rng.SeedAt(seed, 0))}
	for i := 0; i < hotKeys; i++ {
		c := keyGen.scalar(hotRoutes[i%len(hotRoutes)])
		c.key = i
		s.keys = append(s.keys, c)
	}
	for _, c := range s.keys {
		status, err := s.serveOne(c)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm fill %s: status %d: %s", c.route, status, s.resp.body.Bytes())
		}
		s.refs = append(s.refs, append([]byte(nil), s.resp.body.Bytes()...))
	}
	return s, nil
}

// setupServeCold builds the server and fills its cache to capacity
// with fresh points, so every timed request misses and evicts.
func setupServeCold(seed uint64) (instance, error) {
	s := newServeInst(seed, true)
	fill := &gen{r: rng.New(rng.SeedAt(seed, 0))}
	for i := 0; i < 1024; i++ {
		c := fill.scalar(hotRoutes[i%len(hotRoutes)])
		status, err := s.serveOne(c)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("cache fill %s: status %d: %s", c.route, status, s.resp.body.Bytes())
		}
	}
	return s, nil
}

// serveOne sends one request through the handler into s.resp.
func (s *serveInst) serveOne(c call) (int, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/"+c.route, bytes.NewReader(c.body))
	if err != nil {
		return 0, err
	}
	s.resp.reset()
	s.handler.ServeHTTP(&s.resp, req)
	return s.resp.status(), nil
}

// nextBatch draws the window's requests before the timed region.
func (s *serveInst) nextBatch() {
	s.calls = s.calls[:0]
	if !s.cold {
		for i := 0; i < hotWindow; i++ {
			s.calls = append(s.calls, s.keys[s.gen.r.Intn(len(s.keys))])
		}
		return
	}
	kinds := make([]string, coldWindow)
	for i := range kinds {
		switch {
		case i < coldFits:
			kinds[i] = "fit"
		case i < coldFits+coldSweeps:
			kinds[i] = "sweep"
		default:
			kinds[i] = hotRoutes[s.gen.r.Intn(len(hotRoutes))]
		}
	}
	for _, i := range s.gen.r.Perm(len(kinds)) {
		switch kinds[i] {
		case "fit":
			s.calls = append(s.calls, s.gen.fit())
		case "sweep":
			s.calls = append(s.calls, s.gen.sweep())
		default:
			s.calls = append(s.calls, s.gen.scalar(kinds[i]))
		}
	}
}

func (s *serveInst) window(m *meter, tr *tracer) error {
	s.nextBatch()
	s.arena = s.arena[:0]
	s.offsets = s.offsets[:0]
	statuses := make([]int, len(s.calls))
	m.begin()
	for i, c := range s.calls {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/"+c.route, bytes.NewReader(c.body))
		if err != nil {
			return err
		}
		s.resp.reset()
		id := tr.start(0, "serve", c.route)
		t0 := s.clk.Now()
		s.handler.ServeHTTP(&s.resp, req)
		if took := s.clk.Now().Sub(t0); c.route == "fit" || c.route == "sweep" {
			m.opUnranked()
		} else {
			m.op(took)
		}
		tr.end(id)
		statuses[i] = s.resp.status()
		s.offsets = append(s.offsets, len(s.arena))
		s.arena = append(s.arena, s.resp.body.Bytes()...)
	}
	m.end()
	s.offsets = append(s.offsets, len(s.arena))

	check := tr.start(0, "check", "serve")
	defer tr.end(check)
	if !s.cold {
		for i, c := range s.calls {
			if statuses[i] != http.StatusOK || !bytes.Equal(s.body(i), s.refs[c.key]) {
				m.fail(1)
				m.report("%s key %d: status %d, body differs from its first answer", c.route, c.key, statuses[i])
			}
		}
		return nil
	}
	s.oracle.tr, s.oracle.parent = tr, check
	for i, c := range s.calls {
		want, err := c.want(s.oracle)
		got := bytes.TrimSuffix(s.body(i), []byte("\n"))
		if err != nil || statuses[i] != http.StatusOK || !bytes.Equal(got, want) {
			m.fail(1)
			m.report("%s %s: status %d, direct solve err %v\n  got  %s\n  want %s", c.route, c.body, statuses[i], err, got, want)
		}
		if c.route == "fit" {
			s.fits++
		}
	}
	return nil
}

// body is the response body of the window's i-th call.
func (s *serveInst) body(i int) []byte { return s.arena[s.offsets[i]:s.offsets[i+1]] }

func (s *serveInst) beginTraced() {
	s.before = scrape(s.srv.Registry())
	s.oracle.observe()
	s.fits = 0
	s.clientAllocs, s.clientBytes = s.measureClient()
}

// measureClient counts the allocations of the client-side request
// construction alone, so the per-request allocation metrics describe
// the server.
func (s *serveInst) measureClient() (float64, float64) {
	const n = 1000
	c := s.calls[0]
	m := newMeter(s.clk, true, 0)
	m.begin()
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/"+c.route, bytes.NewReader(c.body))
		if err != nil || req == nil {
			return 0, 0
		}
		s.resp.reset()
		m.op(0)
	}
	m.end()
	return float64(m.mallocs) / n, float64(m.bytes) / n
}

func (s *serveInst) layers(base *meter, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, r := range serveRoutes {
		out["serve.req_us."+r] = tr.meanUS("serve", r)
	}
	if base.ops > 0 {
		out["serve.allocs_per_req"] = float64(base.mallocs)/float64(base.ops) - s.clientAllocs
		out["serve.bytes_per_req"] = float64(base.bytes)/float64(base.ops) - s.clientBytes
		out["serve.gc_per_kreq"] = float64(base.gcs) * 1000 / float64(base.ops)
	}
	d := delta(s.before, scrape(s.srv.Registry()))
	hit := d[`lopc_serve_cache_events_total{event="hit"}`]
	lookups := hit + d[`lopc_serve_cache_events_total{event="miss"}`] + d[`lopc_serve_cache_events_total{event="collapsed"}`]
	out["serve.cache_hit_ratio"] = ratio(hit, lookups)
	for _, h := range []string{"queue_wait", "service", "overhead"} {
		name := "lopc_serve_" + h + "_us"
		out["serve."+h+"_us"] = ratio(d[name+"_sum"], d[name+"_count"])
	}
	out["calib.samples"] = d[`lopc_calib_samples_total{stream="service"}`] +
		d[`lopc_calib_samples_total{stream="wait"}`] + d[`lopc_calib_samples_total{stream="overhead"}`]
	out["calib.refits"] = d["lopc_calib_window_refits_total"]
	out["calib.refit_failures"] = d["lopc_calib_window_refit_failures_total"]
	if s.cold {
		s.oracle.layers(tr, s.fits, out)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// scrape reads a registry's Prometheus exposition into series → value
// (bucket lines skipped).
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after − before per series.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// respRecorder is a reusable in-memory http.ResponseWriter.
type respRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *respRecorder) Header() http.Header { return r.header }

func (r *respRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *respRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *respRecorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

func (r *respRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}
