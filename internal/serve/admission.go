package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// admission is the server's bounded solver pool: at most workers solves
// run at once, at most queueDepth requests wait for a slot, and no
// request waits longer than queueWait (or its own context deadline).
// Everything past those limits is shed immediately with a Retry-After
// hint — the server applies the paper's own lesson that letting queues
// grow without bound only converts throughput into latency.
type admission struct {
	sem        chan struct{} // buffered to the worker count
	queueDepth int
	queueWait  time.Duration
	solveEst   time.Duration // rough per-solve service time, for Retry-After
	clk        clock.Waiter
	met        *metrics
}

// shedError reports an admission rejection: the HTTP status to return
// and the Retry-After hint in whole seconds.
type shedError struct {
	status     int
	retryAfter int
	reason     string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("admission: %s (retry after %ds)", e.reason, e.retryAfter)
}

func newAdmission(workers, queueDepth int, queueWait, solveEst time.Duration, clk clock.Waiter, met *metrics) *admission {
	return &admission{
		sem:        make(chan struct{}, workers),
		queueDepth: queueDepth,
		queueWait:  queueWait,
		solveEst:   solveEst,
		clk:        clk,
		met:        met,
	}
}

// retryAfter estimates when a slot is likely to free up: the current
// backlog times the per-solve estimate, divided across the pool,
// rounded up to a whole second (the Retry-After unit).
func (a *admission) retryAfter() int {
	backlog := a.met.queueDepth.Value() + int64(len(a.sem))
	est := time.Duration(backlog+1) * a.solveEst / time.Duration(cap(a.sem))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// claim takes a solver slot, waiting up to queueWait (and no longer
// than ctx allows); release frees it. A rejection is a *shedError
// carrying the HTTP status. The queue-depth gauge tracks waiters; shed
// counters classify every rejection. Every admitted request records its
// queue wait — zero on the fast path — into the queue-wait histogram
// and, unless t is nil, the request's timing carrier t.
func (a *admission) claim(ctx context.Context, t *reqTiming) error {
	start := a.clk.Now()
	if a.try(start, t) {
		return nil
	}
	return a.wait(ctx, start, t)
}

// try takes a free slot without waiting, recording the wait since start
// if it gets one.
func (a *admission) try(start time.Time, t *reqTiming) bool {
	select {
	case a.sem <- struct{}{}:
		a.granted(start, t)
		return true
	default:
		return false
	}
}

// wait queues for a slot that try found taken, shedding past the queue
// depth, the queue-wait cap or ctx's deadline.
func (a *admission) wait(ctx context.Context, start time.Time, t *reqTiming) error {
	if depth := a.met.queueDepth.Add(1); depth > int64(a.queueDepth) {
		a.met.queueDepth.Add(-1)
		a.met.shedQueueFull.Add(1)
		return &shedError{status: 503, retryAfter: a.retryAfter(), reason: "queue full"}
	}
	defer a.met.queueDepth.Add(-1)
	select {
	case a.sem <- struct{}{}:
		a.granted(start, t)
		return nil
	case <-ctx.Done():
		a.met.shedDeadline.Add(1)
		return &shedError{status: 429, retryAfter: a.retryAfter(), reason: "deadline expired while queued"}
	case <-a.clk.After(a.queueWait):
		a.met.shedTimeout.Add(1)
		return &shedError{status: 429, retryAfter: a.retryAfter(), reason: "queue wait exceeded"}
	}
}

// granted records the queue wait of a request admitted now that asked
// at start.
func (a *admission) granted(start time.Time, t *reqTiming) {
	// Fractional microseconds: a sub-µs wait must not round to zero, or
	// the calibrator's windows would lose their timing signal on fast
	// machines.
	us := float64(a.clk.Now().Sub(start)) / float64(time.Microsecond)
	if us < 0 {
		us = 0
	}
	a.met.queueWait.Observe(us)
	if t != nil {
		t.waitUS += us
	}
}

// release frees a slot claim took.
func (a *admission) release() { <-a.sem }

// RecommendWorkers sizes the solver pool with the repository's own
// work-pile model (Eq. 6.8): the service is a work-pile in which each
// expected concurrent client "computes" for the think time between its
// requests and solver workers are the servers handing out results, so
// the optimal worker count is the paper's optimal server allocation
// Ps* = P(1+q)So / (W + 2St + (3+2q)So) with P = clients + workers
// folded into the client population, W = think, So = solve, St ≈ 0.
// Handler variability is taken as exponential (C² = 1): solve times
// vary point-to-point with how fast the fixed point converges.
//
// It returns the real-valued optimum and the best integral worker
// count (the throughput-maximizing rounding, clamped to [1, clients−1]
// like the paper's allocation).
func RecommendWorkers(clients int, think, solve time.Duration) (psStar float64, workers int, err error) {
	if clients < 2 {
		return 0, 0, fmt.Errorf("serve: sizing needs at least 2 expected clients, got %d", clients)
	}
	if think < 0 || solve <= 0 {
		return 0, 0, fmt.Errorf("serve: sizing needs think >= 0 and solve > 0 (got think=%v solve=%v)", think, solve)
	}
	p := core.ClientServerParams{
		P:  clients,
		Ps: 1,
		W:  float64(think.Microseconds()),
		St: 0,
		So: float64(solve.Microseconds()),
		C2: 1,
	}
	if p.So <= 0 {
		p.So = 1 // sub-microsecond solve estimates still need positive So
	}
	workers, err = core.OptimalServersInt(p)
	if err != nil {
		return 0, 0, err
	}
	return core.OptimalServers(p), workers, nil
}
