// Command lopc-serve answers LoPC contention predictions over HTTP: a
// long-running, capacity-planned service over the model stack, with a
// solve cache, admission control, and a JSON metrics endpoint.
//
// Usage:
//
//	lopc-serve [-addr :8080] [-workers 0] [-queue 64] [-queue-wait 1s]
//	           [-timeout 10s] [-cache 1024] [-sweep-points 4096]
//	           [-sweep-jobs 0] [-solve-est 1ms] [-drain 10s]
//	           [-pprof] [-convtrace FILE] [-reqtrace FILE]
//	           [-calib] [-calib-window 256] [-calib-pop 0]
//
// Endpoints: POST /v1/alltoall, /v1/workpile, /v1/general, /v1/bounds,
// /v1/fit, /v1/sweep; GET /metrics, /healthz, /readyz. See the README
// "Serving predictions" section for request shapes and examples.
//
// -calib turns on online model calibration: the server splits its own
// request timing into queue-wait, service, and overhead streams, refits
// (W, St, So, C²) every -calib-window solved requests, and watches a
// CUSUM drift detector (the lopc_model_drift gauge). GET
// /v1/calibration reports the live fit; POST /v1/whatif answers
// capacity questions at it. -calib-pop overrides the modeled closed
// population (default: workers + queue).
//
// /metrics content-negotiates: the JSON document by default, Prometheus
// text exposition for scrapers (Accept: text/plain or
// ?format=prometheus), including Go runtime gauges. -pprof additionally
// mounts net/http/pprof under /debug/pprof/. At shutdown, -convtrace
// writes the ring of recent solver convergence traces (.csv or JSON)
// and -reqtrace writes a Chrome-trace span per handled request.
//
// -workers 0 sizes the solver pool with the paper's own Eq. 6.8
// optimal-server allocation (clamped to [1, GOMAXPROCS]); any other
// value is used as given, with the model's recommendation logged for
// comparison. SIGINT/SIGTERM trigger a graceful drain: /readyz flips
// to 503, in-flight requests finish, and the process exits 0 once the
// listener has shut down cleanly (or after -drain at the latest).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole daemon minus os.Exit. onReady, when non-nil, is
// called with the bound listen address once the server is accepting —
// tests use it to drive a real process lifecycle in-process.
func run(args []string, stdout, stderr io.Writer, onReady func(addr string)) int {
	fs := flag.NewFlagSet("lopc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "solver pool size (0: size from the paper's Eq. 6.8, clamped to GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "admission queue depth before 503 shedding")
		queueWait   = fs.Duration("queue-wait", time.Second, "max time a request waits for a solver before 429")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request deadline on admission wait plus solve, from first admission (cache hits never start it)")
		cacheSize   = fs.Int("cache", 1024, "solve-cache entries (-1: disable memoization, keep singleflight)")
		sweepPoints = fs.Int("sweep-points", 4096, "max points per /v1/sweep request")
		sweepJobs   = fs.Int("sweep-jobs", 0, "max fan-out per /v1/sweep request (0: worker count)")
		solveEst    = fs.Duration("solve-est", time.Millisecond, "estimated per-solve service time (Retry-After and Eq. 6.8 sizing)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (unauthenticated; keep off public listeners)")
		convtr      = fs.String("convtrace", "", "write recent solver convergence traces to this file at shutdown (.csv, else JSON)")
		reqtrace    = fs.String("reqtrace", "", "write a Chrome-trace span per handled request to this file at shutdown")
		calibOn     = fs.Bool("calib", false, "refit (W, St, So, C2) online from live traffic; mounts /v1/calibration and /v1/whatif")
		calibWindow = fs.Int("calib-window", 0, "calibration refit window in solved requests (0: default 256)")
		calibPop    = fs.Int("calib-pop", 0, "modeled closed client population for calibration (0: workers + queue)")
		ver         = version.AddFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		fmt.Fprintln(stdout, version.String("lopc-serve"))
		return 0
	}

	logger := log.New(stderr, "lopc-serve: ", log.LstdFlags)
	if *workers <= 0 {
		*workers = recommendedWorkers(logger, *queue, *solveEst)
	}
	var spans *trace.Spans
	if *reqtrace != "" {
		spans = trace.NewSpans(nil)
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		QueueWait:      *queueWait,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		SolveEstimate:  *solveEst,
		MaxSweepPoints: *sweepPoints,
		MaxSweepJobs:   *sweepJobs,
		Logf:           logger.Printf,
		Pprof:          *pprofOn,
		Spans:          spans,

		Calibration:     *calibOn,
		CalibWindow:     *calibWindow,
		CalibPopulation: *calibPop,
	})
	// Runtime gauges (goroutines, heap, GC) join the Prometheus
	// exposition; the JSON document is untouched by them.
	obs.RegisterRuntime(srv.Registry())

	// writeTraces flushes the -convtrace / -reqtrace files; it runs on
	// every exit path after the server has stopped handling requests.
	writeTraces := func() bool {
		ok := true
		if *convtr != "" {
			if err := srv.ConvTraces().WriteFile(*convtr); err != nil {
				logger.Printf("convtrace: %v", err)
				ok = false
			} else {
				logger.Printf("wrote %d convergence trace(s) to %s", srv.ConvTraces().Total(), *convtr)
			}
		}
		if spans != nil {
			if err := spans.WriteFile(*reqtrace); err != nil {
				logger.Printf("reqtrace: %v", err)
				ok = false
			} else {
				logger.Printf("wrote %d request span(s) to %s", spans.Len(), *reqtrace)
			}
		}
		return ok
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s (%d workers, queue %d, cache %d)", ln.Addr(), *workers, *queue, *cacheSize)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		writeTraces()
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills hard

	logger.Printf("signal received, draining (budget %v)", *drain)
	srv.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("drain incomplete: %v", err)
		writeTraces()
		return 1
	}
	if !writeTraces() {
		return 1
	}
	logger.Printf("clean shutdown")
	return 0
}

// recommendedWorkers sizes the pool from the paper's own work-pile
// model: the admission queue plus pool is the client population, the
// solve estimate is the server's handler cost, and clients are taken
// as saturating (zero think time) — the worst-case burst the pool must
// absorb. The result is clamped to [1, GOMAXPROCS]: the model knows
// about contention, the runtime knows how many processors exist.
func recommendedWorkers(logger *log.Logger, queue int, solveEst time.Duration) int {
	maxProcs := runtime.GOMAXPROCS(0)
	clients := queue + maxProcs
	psStar, rec, err := serve.RecommendWorkers(clients, 0, solveEst)
	if err != nil {
		logger.Printf("Eq. 6.8 sizing unavailable (%v); using GOMAXPROCS = %d", err, maxProcs)
		return maxProcs
	}
	if rec < 1 {
		rec = 1
	}
	if rec > maxProcs {
		rec = maxProcs
	}
	logger.Printf("sizing workers from the work-pile model (Eq. 6.8): Ps* = %.2f for ~%d saturating clients at solve=%v; using %d",
		psStar, clients, solveEst, rec)
	return rec
}
