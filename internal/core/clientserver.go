package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// ClientServerParams parameterizes the work-pile analysis of Chapter 6:
// a machine of P nodes split into Pc = P − Ps clients, which process
// chunks of work, and Ps servers, which hand out chunks. Each client
// computes for W cycles (one chunk), then makes a blocking request to a
// uniformly random server for the next chunk.
type ClientServerParams struct {
	// P is the total number of nodes; Ps of them act as servers.
	P, Ps int
	// W is the mean work per chunk at a client.
	W float64
	// St is the mean network latency per trip.
	St float64
	// So is the mean handler cost (request handler at the server, reply
	// handler at the client).
	So float64
	// C2 is the squared coefficient of variation of handler service.
	C2 float64
}

// Validate reports whether the parameters are usable.
func (p ClientServerParams) Validate() error {
	switch {
	case p.P < 2:
		return fmt.Errorf("core: client-server needs P >= 2, got %d", p.P)
	case p.Ps < 1 || p.Ps >= p.P:
		return fmt.Errorf("core: need 1 <= Ps < P, got Ps=%d P=%d", p.Ps, p.P)
	// The negated comparisons reject NaN too: NaN >= 0 is false.
	case !(p.W >= 0) || !(p.St >= 0) || !(p.C2 >= 0) ||
		math.IsInf(p.W, 0) || math.IsInf(p.St, 0) || math.IsInf(p.C2, 0):
		return fmt.Errorf("core: negative or non-finite parameter in %+v", p)
	case !(p.So > 0) || math.IsInf(p.So, 0):
		return fmt.Errorf("core: So = %v; handlers must take positive, finite time", p.So)
	}
	return nil
}

// ClientServerResult is the model's solution for a given client/server
// split.
type ClientServerResult struct {
	// X is the system throughput: chunks processed per cycle across the
	// whole machine (Eq. 6.2): X = Pc/R.
	X float64
	// R is the mean compute/request cycle time at a client (Eq. 6.7).
	R float64
	// Rs is the mean response time of a request at a server, queueing
	// plus service.
	Rs float64
	// Qs is the mean number of requests present at each server; the
	// optimal allocation makes this 1.
	Qs float64
	// Us is the utilization of each server.
	Us float64
	// Solve describes the fixed-point iteration that produced this
	// result.
	Solve obs.SolveStats
}

// ClientServer solves the work-pile model for an arbitrary split,
// producing the throughput curve of Figure 6-2. Clients suffer no
// interference at their own node (servers never initiate requests and
// only the client's own reply can be present), so R = W + 2St + Rs + So;
// the only unknown is the server response time Rs, found as a fixed
// point of Bard's approximation (Eq. 6.5 with Little's law).
func ClientServer(p ClientServerParams) (ClientServerResult, error) {
	return ClientServerObserved(p, nil)
}

// clientServerIter is one iterate of the work-pile fixed point: rsNext
// is the next server response time, and x, r, qs and us the model
// quantities at the trial one. us is set even when the saturation
// guard fires, so the solver can render the guard's error.
type clientServerIter struct {
	x, r, rsNext, qs, us float64
}

// clientServerStep evaluates one iterate of the work-pile fixed point
// (Eq. 6.5 with Little's law): given a trial server response time rs it
// returns the implied model quantities and the next iterate, or the
// guard the trial iterate tripped. pc and ps are the client and server
// counts as floats.
func clientServerStep(p ClientServerParams, pc, ps, rs float64) (clientServerIter, stepGuard) {
	r := p.W + 2*p.St + rs + p.So
	x := pc / r
	lamS := x / ps // arrival rate at each server
	us := lamS * p.So
	if us >= 1 {
		return clientServerIter{us: us}, guardSaturated
	}
	qs := lamS * rs
	rsNext := p.So * (1 + qs + (p.C2-1)/2*us)
	return clientServerIter{x: x, r: r, rsNext: rsNext, qs: qs, us: us}, guardNone
}

// guardError renders the saturation guard's error, which it tripped at
// trial server response time rs.
func (it clientServerIter) guardError(rs float64) error {
	return fmt.Errorf("core: server utilization %v >= 1 at Rs=%v", it.us, rs)
}

// ClientServerObserved is ClientServer reporting the solve to o (which
// may be nil). The returned result's Solve field carries the same stats
// the observer sees.
func ClientServerObserved(p ClientServerParams, o obs.SolveObserver) (ClientServerResult, error) {
	if err := p.Validate(); err != nil {
		return ClientServerResult{}, err
	}
	done := beginSolve(o, SolverClientServer)
	pc := float64(p.P - p.Ps)
	ps := float64(p.Ps)
	var stats obs.SolveStats
	f := func(rs float64) (float64, bool) {
		it, g := clientServerStep(p, pc, ps, rs)
		if g != guardNone {
			stats.GuardTrips++
			return 0, false
		}
		if it.us > stats.MaxUtil {
			stats.MaxUtil = it.us
		}
		return it.rsNext, true
	}
	rs, fp, err := numeric.FixedPoint(f, p.So, numeric.Unbracketed)
	stats.Iters, stats.Residual, stats.Converged = fp.Iters, fp.Residual, fp.Converged
	it, g := clientServerStep(p, pc, ps, rs)
	switch {
	case g != guardNone:
		err = it.guardError(rs)
	case err != nil:
		err = fmt.Errorf("core: client-server fixed point: %w", err)
	}
	if err != nil {
		stats.Err = err.Error()
	}
	done(stats)
	if err != nil {
		return ClientServerResult{}, err
	}
	res := ClientServerResult{X: it.x, R: it.r, Rs: rs, Qs: it.x / ps * rs, Us: it.us, Solve: stats}
	return res, nil
}

// OptimalServerRs returns the closed-form server response time at the
// optimal allocation (Eq. 6.6). At the optimum the mean queue length at
// each server is exactly 1, and Eq. 6.5 collapses to a quadratic in Rs
// whose positive root is
//
//	Rs = So(1 + sqrt((C²+1)/2))
func OptimalServerRs(so, c2 float64) float64 {
	return so * (1 + math.Sqrt((c2+1)/2))
}

// OptimalServers returns the closed-form optimal number of servers
// (Eq. 6.8):
//
//	Ps* = P(1+q)So / (W + 2St + (3+2q)So),  q = sqrt((C²+1)/2)
//
// The result is the real-valued optimum; round to the neighboring
// integers and compare via ClientServer for an exact integral optimum.
func OptimalServers(p ClientServerParams) float64 {
	q := math.Sqrt((p.C2 + 1) / 2)
	return float64(p.P) * (1 + q) * p.So / (p.W + 2*p.St + (3+2*q)*p.So)
}

// OptimalServersInt returns the best integral server count, found by
// rounding the closed form both ways and keeping the higher-throughput
// choice (clamped to [1, P−1]).
func OptimalServersInt(p ClientServerParams) (int, error) {
	if err := (ClientServerParams{P: p.P, Ps: 1, W: p.W, St: p.St, So: p.So, C2: p.C2}).Validate(); err != nil {
		return 0, err
	}
	opt := OptimalServers(p)
	clamp := func(v int) int {
		if v < 1 {
			return 1
		}
		if v > p.P-1 {
			return p.P - 1
		}
		return v
	}
	lo, hi := clamp(int(math.Floor(opt))), clamp(int(math.Ceil(opt)))
	best, bestX := lo, math.Inf(-1)
	for _, ps := range []int{lo, hi} {
		q := p
		q.Ps = ps
		res, err := ClientServer(q)
		if err != nil {
			continue
		}
		if res.X > bestX {
			best, bestX = ps, res.X
		}
	}
	if math.IsInf(bestX, -1) {
		return 0, fmt.Errorf("core: no feasible allocation near Ps=%v", opt)
	}
	return best, nil
}

// ClientServerBounds returns the LogP-style optimistic throughput
// bounds of Chapter 6 (the dotted lines of Figure 6-2): the server
// bound Ps/So and the client bound Pc/(W + 2St + 2So). The true
// throughput never exceeds min(server, client).
func ClientServerBounds(p ClientServerParams) (server, client float64) {
	server = float64(p.Ps) / p.So
	client = float64(p.P-p.Ps) / (p.W + 2*p.St + 2*p.So)
	return server, client
}

// PeakThroughput returns the model's throughput at the real-valued
// optimal allocation: X* = P/(R + Rs) with R and Rs from the closed
// forms (combining Eqs. 6.3, 6.6 and 6.7).
func PeakThroughput(p ClientServerParams) float64 {
	rs := OptimalServerRs(p.So, p.C2)
	r := p.W + 2*p.St + rs + p.So
	return float64(p.P) / (r + rs)
}
