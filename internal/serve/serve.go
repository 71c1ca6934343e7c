// Package serve exposes the LoPC model stack over HTTP: JSON endpoints
// for single solves (/v1/alltoall, /v1/workpile, /v1/general), batch
// sweeps (/v1/sweep, fanned out through internal/runner), bounds and
// calibration queries, all behind a solve cache and admission control.
//
// The server manages exactly the resource contention the model it
// serves describes — a bounded pool of solver workers fed by bursty
// request arrivals — so it eats its own dogfood twice:
//
//   - The solve cache collapses thundering herds on a hot parameter
//     point into one AMVA fixed-point solve (singleflight) and memoizes
//     rendered responses in an LRU keyed on canonicalized, quantized
//     parameter tuples, making cache hits byte-identical to cold solves.
//   - Admission control bounds the worker pool and its queue, sheds
//     excess load with 429/503 + Retry-After, and is sized at startup by
//     the paper's own Eq. 6.8 optimal server allocation
//     (RecommendWorkers).
//
// Observability is built on the shared internal/obs registry: /metrics
// serves the original JSON document by default and Prometheus text
// exposition under content negotiation (Accept: text/plain or
// ?format=prometheus); solver convergence traces are recorded through
// an obs.ConvRecorder threaded into every solve; Config.Spans records
// per-request Chrome-trace spans; Config.Pprof mounts net/http/pprof
// under /debug/pprof/. /healthz and /readyz complete the surface;
// draining for graceful shutdown flips /readyz to 503 while in-flight
// requests finish.
//
// Adding a solve endpoint takes its wire types (a request struct whose
// fields carry json tags, and a response struct), a params function
// that validates the request into the solve's parameter struct, a solve
// function from those parameters to the response, and one row in
// solveRoutes (route.go). The route supplies decoding, the cache key,
// caching, admission, marshalling and the error answers.
package serve

import (
	"net/http"
	httppprof "net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Workers is the solver pool size: the maximum number of solves
	// (or sweeps) in flight. Defaults to 8. RecommendWorkers sizes it
	// from the paper's own model.
	Workers int
	// QueueDepth is the maximum number of requests waiting for a
	// worker before the server sheds with 503. Defaults to 64.
	QueueDepth int
	// QueueWait caps how long one request waits for a worker before a
	// 429. Defaults to 1s.
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline, armed when a request
	// first waits for admission: it bounds admission wait plus solve
	// (and a sweep's fan-out). Cache hits never start it. Defaults to
	// 10s.
	RequestTimeout time.Duration
	// CacheSize is the solve-cache capacity in entries; <= -1 disables
	// memoization (singleflight collapse stays on). 0 means the
	// default 1024.
	CacheSize int
	// SolveEstimate is the rough per-solve service time used for
	// Retry-After hints and the Eq. 6.8 sizing log. Defaults to 1ms.
	SolveEstimate time.Duration
	// MaxSweepPoints caps the points of one /v1/sweep request.
	// Defaults to 4096.
	MaxSweepPoints int
	// MaxSweepJobs caps the per-request fan-out of /v1/sweep (the
	// request's own jobs field is clamped to it). Defaults to Workers.
	MaxSweepJobs int
	// MaxBodyBytes caps request bodies. Defaults to 1 MiB.
	MaxBodyBytes int64
	// Clock supplies time for latency metrics, queue-wait timeouts and
	// drain deadlines. nil means the system clock; tests inject a
	// clock.Fake to pin shed and drain behaviour.
	Clock clock.Waiter
	// Logf, when non-nil, receives startup and drain log lines.
	Logf func(format string, args ...any)
	// Pprof mounts net/http/pprof handlers under /debug/pprof/ for CPU,
	// heap and goroutine profiling. Off by default: the profile
	// endpoints are unauthenticated and can stall the process while a
	// profile is captured, so they are opt-in.
	Pprof bool
	// Spans, when non-nil, records one Chrome-trace span per API
	// request (viewable in Perfetto). Like runner.Options.Spans, it
	// observes requests without affecting responses.
	Spans *trace.Spans
	// ConvCapacity sizes the ring of recent solver convergence traces;
	// <= 0 means obs.DefaultConvCapacity.
	ConvCapacity int
	// Calibration enables the online model calibrator: the split timing
	// histograms feed a calib.Estimator that continuously refits
	// (W, St, So, C²) from live traffic, /v1/calibration and /v1/whatif
	// are mounted, and the lopc_model_drift gauge joins the exposition.
	Calibration bool
	// CalibWindow is the calibrator's refit window in service samples;
	// <= 0 means calib.DefaultWindow.
	CalibWindow int
	// CalibPopulation overrides the modeled closed client population P.
	// <= Workers (including the zero default) means Workers+QueueDepth —
	// the most concurrency admission control lets the server absorb.
	CalibPopulation int
	// CalibEstimator injects a pre-built estimator instead of
	// constructing one; it implies Calibration. Tests use this to mount
	// the endpoints over a fake-clock estimator warmed with synthetic
	// traffic.
	CalibEstimator *calib.Estimator
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.SolveEstimate <= 0 {
		c.SolveEstimate = time.Millisecond
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxSweepJobs <= 0 {
		c.MaxSweepJobs = c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	if c.ConvCapacity <= 0 {
		c.ConvCapacity = obs.DefaultConvCapacity
	}
	return c
}

// Server is the contention-aware prediction service. Create one with
// New, mount Handler on an http.Server, and call Drain before exit.
type Server struct {
	cfg      Config
	clk      clock.Waiter
	router   router
	cache    *solveCache
	adm      *admission
	met      *metrics
	reg      *obs.Registry
	conv     *obs.ConvRecorder
	calib    *calib.Estimator // nil unless calibration is enabled
	draining atomic.Bool
	active   sync.WaitGroup // one count per in-flight request
}

// New builds a Server from cfg (zero value fine) and logs the Eq. 6.8
// worker-pool recommendation for the configured solve-time estimate.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	met := newMetrics(cfg.Clock.Now(), reg)
	s := &Server{
		cfg: cfg,
		clk: cfg.Clock,
		router: router{
			table: make(map[string]http.Handler),
			mux:   http.NewServeMux(),
		},
		cache: newSolveCache(cfg.CacheSize),
		adm:   newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait, cfg.SolveEstimate, cfg.Clock, met),
		met:   met,
		reg:   reg,
		conv:  obs.NewConvRecorder(cfg.ConvCapacity, cfg.Clock, reg),
	}
	// Derived gauges mirror the JSON document's computed fields into
	// the Prometheus exposition; they read server state at scrape time.
	reg.GaugeFunc("lopc_serve_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return s.clk.Now().Sub(met.start).Seconds() })
	reg.GaugeFunc("lopc_serve_cache_size", "Entries currently in the solve cache.", nil,
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("lopc_serve_cache_capacity", "Configured solve-cache capacity.", nil,
		func() float64 { return float64(s.cfg.CacheSize) })
	reg.GaugeFunc("lopc_serve_draining", "1 while the server is draining, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	if cfg.CalibEstimator != nil {
		s.calib = cfg.CalibEstimator
	} else if cfg.Calibration {
		pop := cfg.CalibPopulation
		if pop <= cfg.Workers {
			pop = cfg.Workers + cfg.QueueDepth
		}
		s.calib = calib.New(calib.Config{
			P: pop, Ps: cfg.Workers,
			Window:   cfg.CalibWindow,
			Clock:    cfg.Clock,
			Registry: reg,
		})
	}
	if s.calib != nil {
		// The calibrator drinks from the timing histograms' sample taps:
		// every recorded wait/service/overhead observation is forwarded
		// as-is, so the estimator sees exactly what /metrics reports.
		met.queueWait.SetTap(s.calib.ObserveWait)
		met.service.SetTap(s.calib.ObserveService)
		met.overhead.SetTap(s.calib.ObserveOverhead)
	}
	s.routes()
	s.logSizing()
	return s
}

// Calibrator returns the online estimator, or nil when calibration is
// disabled.
func (s *Server) Calibrator() *calib.Estimator { return s.calib }

// Registry returns the server's metrics registry, e.g. so a main
// package can add runtime gauges (obs.RegisterRuntime) to the
// Prometheus exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ConvTraces returns the recorder holding recent solver convergence
// traces; mains export it via -convtrace at shutdown.
func (s *Server) ConvTraces() *obs.ConvRecorder { return s.conv }

// logSizing reports what the paper's own work-pile model recommends
// for the configured pool: dogfooding Eq. 6.8 as capacity planning.
func (s *Server) logSizing() {
	if s.cfg.Logf == nil {
		return
	}
	clients := s.cfg.QueueDepth + s.cfg.Workers // the population the pool must absorb
	psStar, workers, err := RecommendWorkers(clients, 0, s.cfg.SolveEstimate)
	if err != nil {
		s.cfg.Logf("serve: Eq. 6.8 sizing unavailable: %v", err)
		return
	}
	s.cfg.Logf("serve: admission sized for %d workers, queue %d; work-pile model (Eq. 6.8) recommends Ps* = %.2f (best integral %d) for ~%d saturating clients at solve=%v",
		s.cfg.Workers, s.cfg.QueueDepth, psStar, workers, clients, s.cfg.SolveEstimate)
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return &s.router }

// router dispatches a request whose path is exactly an API route's
// straight to that route's handler, and everything else — /healthz,
// /metrics, pprof, unclean paths the mux redirects, unknown paths and
// CONNECT — to the mux. No pattern names a method or a host, so for a
// clean API path the mux would pick the very handler the table holds:
// the table only skips the mux's search.
type router struct {
	table map[string]http.Handler // the API routes, by path
	mux   *http.ServeMux          // every handler, the API routes too
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The mux matches a path written with escapes (one with a RawPath)
	// on its escaped form, and does not clean a CONNECT's path: leave
	// both to it.
	if r.URL.RawPath == "" && r.Method != http.MethodConnect {
		if h, ok := rt.table[r.URL.Path]; ok {
			h.ServeHTTP(w, r)
			return
		}
	}
	rt.mux.ServeHTTP(w, r)
}

// routes mounts every endpoint.
func (s *Server) routes() {
	mux := s.router.mux
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	for _, e := range solveRoutes {
		s.api(e.info().path, func(w http.ResponseWriter, r *http.Request, t *reqTiming) { e.serve(s, w, r, t) })
	}
	s.api("/v1/sweep", s.handleSweep)
	if s.calib != nil {
		s.api("/v1/calibration", s.handleCalibration)
		s.api("/v1/whatif", s.handleWhatif)
	}
	if s.cfg.Pprof {
		// The pprof handlers self-register on http.DefaultServeMux at
		// import; mount them explicitly so they exist only when asked
		// for and only on this server's mux.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
}

// api mounts the instrumented API handler h at path, in the route
// table and on the mux.
func (s *Server) api(path string, h apiHandler) {
	ih := s.instrument(path, h)
	s.router.table[path] = ih
	s.router.mux.Handle(path, ih)
}

// reqTiming is one request's timing split, which instrument hands its
// handler: admission records the queue wait, the slot-occupancy
// wrapper records service time, and instrument derives overhead (total
// − wait − service) at the end. All writes happen on the request
// goroutine — sweep fan-out workers never touch it — so plain fields
// suffice.
type reqTiming struct {
	waitUS    float64
	serviceUS float64
	served    bool // a solver slot was held: the request is model traffic
}

// apiHandler is an API endpoint: it answers the request and records
// its queue wait and service time into t.
type apiHandler func(w http.ResponseWriter, r *http.Request, t *reqTiming)

// beginService starts a slot-occupancy measurement; the returned func
// records it, into t too unless t is nil, when the slot work finishes.
// Cache hits never hold a slot, so they contribute no service sample —
// exactly the model's view, in which a memoized answer costs no server
// visit.
func (s *Server) beginService(t *reqTiming) func() {
	start := s.clk.Now()
	return func() {
		// Fractional microseconds: a ~1µs solve must stay positive, or
		// the calibrator would see So = 0 windows it cannot fit.
		us := float64(s.clk.Now().Sub(start)) / float64(time.Microsecond)
		if us < 0 {
			us = 0
		}
		s.met.service.Observe(us)
		if t != nil {
			t.serviceUS += us
			t.served = true
		}
	}
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps an API handler with the shared request plumbing:
// draining rejection, in-flight accounting, the body-size cap, and
// request/error/latency metrics. It hands the handler the request's
// timing carrier as an argument, so the request itself passes through
// unchanged: no context value, no copy of the request. The cap stays a
// MaxBytesReader because it also marks an oversized request's
// connection for close. The per-request deadline is armed later, only
// where a request can block on its context (admission and sweep
// fan-out), so cache hits and rejected requests start no timer.
func (s *Server) instrument(route string, h apiHandler) http.Handler {
	rs := s.met.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		}
		s.active.Add(1)
		defer s.active.Done()
		s.met.inFlight.Add(1)
		defer s.met.inFlight.Add(-1)
		rs.requests.Add(1)

		// One allocation carries the request's timing and its status.
		st := &struct {
			rt  reqTiming
			rec statusRecorder
		}{rec: statusRecorder{ResponseWriter: w}}
		rt, rec := &st.rt, &st.rec
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		var endSpan func(map[string]any)
		if s.cfg.Spans != nil {
			endSpan = s.cfg.Spans.Start("http", route)
		}
		start := s.clk.Now()
		h(rec, r, rt)
		total := s.clk.Now().Sub(start)
		observeLatency(rs.latency, total)
		if rt.served {
			// Overhead is whatever the request spent outside queueing and
			// service: decode, dispatch, marshal — the live counterpart of
			// the model's two St trips. Only solved requests contribute,
			// so the three calibration streams describe the same traffic.
			oh := float64(total)/float64(time.Microsecond) - rt.waitUS - rt.serviceUS
			if oh < 0 {
				oh = 0
			}
			s.met.overhead.Observe(oh)
		}
		if endSpan != nil {
			endSpan(map[string]any{"status": rec.status})
		}
		if rec.status >= 400 {
			rs.errors.Add(1)
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ready\n"))
}

// handleMetrics content-negotiates the exposition: the original JSON
// document stays the default (existing scripts and the CI smoke test
// parse it with no Accept header), while Prometheus scrapers — which
// send Accept: text/plain — get text exposition format 0.0.4. The
// ?format=prometheus query parameter forces the text form for curl.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = s.reg.WritePrometheus(w)
		return
	}
	doc := s.met.snapshot(s.clk.Now(), s.cache.len(), s.cfg.CacheSize, s.draining.Load())
	_ = writeJSON(w, http.StatusOK, doc)
}

// wantsPrometheus reports whether the request asked for text
// exposition. JSON wins any tie: only an explicit text/plain or
// OpenMetrics Accept (what Prometheus sends), or ?format=prometheus,
// selects the text form — a browser's */* stays on JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// StartDrain flips the server into draining mode: /readyz answers 503
// (so load balancers stop routing here) and new API requests are
// rejected, while requests already in flight keep running.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain marks the server draining and waits — on the injected clock —
// until every in-flight request has finished or timeout elapses. It
// reports whether the drain completed cleanly.
func (s *Server) Drain(timeout time.Duration) bool {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.cfg.Logf != nil {
			s.cfg.Logf("serve: drain complete, all in-flight requests finished")
		}
		return true
	case <-s.clk.After(timeout):
		if s.cfg.Logf != nil {
			s.cfg.Logf("serve: drain timed out with %d request(s) still in flight", s.met.inFlight.Value())
		}
		return false
	}
}
