package core

import (
	"fmt"
	"math"
)

// NonBlockingResult is the model's solution for the non-blocking
// variant of the homogeneous pattern — the extension the paper's
// conclusion proposes (following Heidelberger and Trivedi's treatment
// of asynchronous tasks). Threads never wait for replies: each cycle is
// W cycles of work followed by a fire-and-forget request whose reply
// handler merely deposits its result.
//
// Throughput follows from processor-time conservation rather than from
// a response-time fixed point: the thread never idles, so each node's
// CPU is fully busy, and in the homogeneous steady state every cycle
// consumes exactly W + 2So of processor time somewhere (W locally, one
// request handler remotely, one reply handler locally). Hence
//
//	X = 1/(W + 2So)      (per thread; interrupt model)
//	X = 1/W              (protocol-processor model, if 2So < W)
//
// Contention does not reduce non-blocking throughput at all — queueing
// only inflates the latency of individual requests, which the Bard
// equations then price at the fixed arrival rate X.
type NonBlockingResult struct {
	// X is per-thread throughput (requests per cycle); system
	// throughput is P·X.
	X float64
	// CycleTime is 1/X, the mean time between a thread's sends.
	CycleTime float64
	// Rq and Ry are the request/reply handler response times at the
	// fixed arrival rate X (queueing plus service).
	Rq, Ry float64
	// Latency is the mean time from injecting a request to the
	// completion of its reply handler: 2St + Rq + Ry.
	Latency float64
	// Outstanding is the mean number of requests a thread has in
	// flight, by Little's law: X·Latency.
	Outstanding float64
	// HandlerUtil is the fraction of each processor consumed by
	// handlers (2·X·So in the interrupt model); as it approaches 1 the
	// system nears saturation and latency diverges.
	HandlerUtil float64
}

// NonBlocking solves the non-blocking homogeneous model. It returns an
// error when the handler load leaves no processor time for the thread
// (possible only in the protocol-processor variant or at W = 0).
func NonBlocking(p Params) (NonBlockingResult, error) {
	if err := p.Validate(); err != nil {
		return NonBlockingResult{}, err
	}
	var x float64
	if p.ProtocolProcessor {
		if p.W <= 0 {
			return NonBlockingResult{}, fmt.Errorf("core: non-blocking PP model needs W > 0")
		}
		x = 1 / p.W
		if 2*x*p.So >= 1 {
			return NonBlockingResult{}, fmt.Errorf("core: protocol processor saturated: 2So/W = %v >= 1", 2*p.So/p.W)
		}
	} else {
		cycle := p.W + 2*p.So
		if cycle <= 0 || math.IsInf(cycle, 0) {
			return NonBlockingResult{}, fmt.Errorf("core: non-blocking model needs 0 < W + 2So < +Inf, got %v", cycle)
		}
		x = 1 / cycle
	}

	// Handler response times at the fixed per-node arrival rate: unlike
	// the blocking model, any number of replies may queue (a thread can
	// have several requests in flight), so requests and replies form
	// one FCFS class with arrival rate 2x and the Bard equations reduce
	// to the open single-queue sojourn
	//
	//	Rh = So(1 + Qh + (C²−1)/2·Uh),  Qh = 2x·Rh,  Uh = 2x·So
	//	⇒ Rh = So(1 + (C²−1)·a) / (1 − 2a),   a = x·So
	//
	// which is exactly the M/M/1 sojourn at C² = 1 and the M/D/1
	// sojourn at C² = 0. The Poisson-arrival assumption makes the
	// latency prediction conservative: the real merged stream of
	// near-periodic senders is smoother than Poisson, so simulated
	// queueing sits a little below this (up to ~15% at heavy handler
	// load) — the same pessimistic direction as the blocking model.
	a := x * p.So
	if 1-2*a <= 1e-9 {
		return NonBlockingResult{}, fmt.Errorf("core: handler queues saturated (2a = %v)", 2*a)
	}
	rh := p.So * (1 + (p.C2-1)*a) / (1 - 2*a)
	rq, ry := rh, rh

	latency := 2*p.St + rq + ry
	if math.IsInf(latency*x, 0) {
		return NonBlockingResult{}, fmt.Errorf("core: non-blocking latency overflows at %+v", p)
	}
	return NonBlockingResult{
		X:           x,
		CycleTime:   1 / x,
		Rq:          rq,
		Ry:          ry,
		Latency:     latency,
		Outstanding: x * latency,
		HandlerUtil: 2 * a,
	}, nil
}
