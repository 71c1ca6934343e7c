package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runner"
)

// call is one generated request: its route, JSON body, the hot key it
// replays, and the direct solve that reproduces its response body.
type call struct {
	route string
	body  []byte
	key   int
	want  func(o *oracle) ([]byte, error)
}

// sweepPoints and sweepJobs shape every generated /v1/sweep request.
const (
	sweepPoints = 32
	sweepJobs   = 2
)

// gen draws request parameters inside each model's feasible region.
// Every draw is continuous, so no two cold requests share a cache key.
type gen struct{ r *rng.Stream }

func (g *gen) u(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// scalar draws one single-solve request for route.
func (g *gen) scalar(route string) call {
	switch route {
	case "alltoall":
		q := g.allToAll()
		return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) {
			return o.allToAllBody(o.parent, q.params())
		}}
	case "workpile", "bounds":
		q := workpileReq{P: 32, Ps: g.r.Intn(17), W: g.u(500, 4000), St: g.u(10, 80), So: g.u(50, 300), C2: g.u(0, 1)}
		p := core.ClientServerParams{P: q.P, Ps: q.Ps, W: q.W, St: q.St, So: q.So, C2: q.C2}
		if route == "bounds" {
			return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) { return o.boundsBody(p) }}
		}
		return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) { return o.workpileBody(p) }}
	case "general":
		const n = 8
		q := generalReq{P: n, V: core.HomogeneousVisits(n), St: g.u(10, 80), So: []float64{g.u(50, 300)}, C2: g.u(0, 1)}
		for i := 0; i < n; i++ {
			q.W = append(q.W, g.u(200, 3000))
		}
		p := core.GeneralParams{P: q.P, W: q.W, V: q.V, St: q.St, So: q.So, C2: q.C2}
		return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) { return o.generalBody(p) }}
	case "lock":
		q := threadsReq{Threads: 1 + g.r.Intn(16), W: g.u(1000, 4000), St: g.u(5, 40), So: g.u(20, 120), C2: g.u(0, 1)}
		p := core.LockParams{Threads: q.Threads, W: q.W, St: q.St, So: q.So, C2: q.C2}
		return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) { return o.lockBody(p) }}
	case "lockfree":
		q := threadsReq{Threads: 2 + g.r.Intn(15), W: g.u(200, 2000), St: g.u(1, 10), So: g.u(20, 100), C2: g.u(0, 1)}
		p := core.LockFreeParams{Threads: q.Threads, W: q.W, St: q.St, So: q.So, C2: q.C2}
		return call{route: route, body: encode(q), want: func(o *oracle) ([]byte, error) { return o.lockFreeBody(p) }}
	}
	panic("perfbench: no generator for route " + route)
}

func (g *gen) allToAll() alltoallReq {
	return alltoallReq{P: 32, W: g.u(0, 4096), St: g.u(10, 80), So: g.u(50, 400), C2: g.u(0, 2)}
}

// fit draws a calibration sweep from the model at a random (St, So),
// with 1% measurement noise on R and Rq.
func (g *gen) fit() call {
	st, so := g.u(20, 60), g.u(100, 300)
	q := fitReq{P: 32}
	for _, base := range []float64{64, 256, 1024, 4096} {
		w := base * g.u(0.9, 1.1)
		res, err := core.AllToAll(core.Params{P: q.P, W: w, St: st, So: so})
		if err != nil {
			panic(fmt.Sprintf("perfbench: fit generator: %v", err))
		}
		q.Observations = append(q.Observations, fitObs{
			W:  w,
			R:  res.R * (1 + 0.01*g.r.NormFloat64()),
			Rq: res.Rq * (1 + 0.01*g.r.NormFloat64()),
		})
	}
	obsv := make([]fit.Observation, len(q.Observations))
	for i, x := range q.Observations {
		obsv[i] = fit.Observation{W: x.W, R: x.R, Rq: x.Rq}
	}
	return call{route: "fit", body: encode(q), want: func(o *oracle) ([]byte, error) { return o.fitBody(obsv, q.P, q.C2) }}
}

func (g *gen) sweep() call {
	q := sweepReq{Jobs: sweepJobs}
	ps := make([]core.Params, sweepPoints)
	for i := range ps {
		pt := g.allToAll()
		q.Points = append(q.Points, pt)
		ps[i] = pt.params()
	}
	return call{route: "sweep", body: encode(q), want: func(o *oracle) ([]byte, error) { return o.sweepBody(ps) }}
}

// encode renders a generated request. The generator draws only finite
// numbers, so an encoding error is a bug.
func encode(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding request: %v", err))
	}
	return data
}

// Request wire types, as the serve endpoints decode them.

type alltoallReq struct {
	P  int     `json:"p"`
	W  float64 `json:"w"`
	St float64 `json:"st"`
	So float64 `json:"so"`
	C2 float64 `json:"c2"`
}

func (q alltoallReq) params() core.Params {
	return core.Params{P: q.P, W: q.W, St: q.St, So: q.So, C2: q.C2}
}

type workpileReq struct {
	P  int     `json:"p"`
	Ps int     `json:"ps"`
	W  float64 `json:"w"`
	St float64 `json:"st"`
	So float64 `json:"so"`
	C2 float64 `json:"c2"`
}

type generalReq struct {
	P  int         `json:"p"`
	W  []float64   `json:"w"`
	V  [][]float64 `json:"v"`
	St float64     `json:"st"`
	So []float64   `json:"so"`
	C2 float64     `json:"c2"`
}

type threadsReq struct {
	Threads int     `json:"threads"`
	W       float64 `json:"w"`
	St      float64 `json:"st"`
	So      float64 `json:"so"`
	C2      float64 `json:"c2"`
}

type fitReq struct {
	P            int      `json:"p"`
	C2           float64  `json:"c2"`
	Observations []fitObs `json:"observations"`
}

type fitObs struct {
	W  float64 `json:"w"`
	R  float64 `json:"r"`
	Rq float64 `json:"rq"`
}

type sweepReq struct {
	Points []alltoallReq `json:"points"`
	Jobs   int           `json:"jobs"`
}

// Response wire types: the check renders the direct solve through these
// and compares the bytes with the server's body.

type alltoallResp struct {
	R                  float64 `json:"r"`
	Rw                 float64 `json:"rw"`
	Rq                 float64 `json:"rq"`
	Ry                 float64 `json:"ry"`
	Qq                 float64 `json:"qq"`
	Qy                 float64 `json:"qy"`
	Uq                 float64 `json:"uq"`
	Uy                 float64 `json:"uy"`
	X                  float64 `json:"x"`
	ContentionFree     float64 `json:"contention_free"`
	UpperBound         float64 `json:"upper_bound"`
	Contention         float64 `json:"contention"`
	ContentionFraction float64 `json:"contention_fraction"`
	RuleOfThumb        float64 `json:"rule_of_thumb"`
}

type workpileResp struct {
	Ps             int     `json:"ps"`
	X              float64 `json:"x"`
	R              float64 `json:"r"`
	Rs             float64 `json:"rs"`
	Qs             float64 `json:"qs"`
	Us             float64 `json:"us"`
	OptimalServers float64 `json:"optimal_servers"`
	PeakThroughput float64 `json:"peak_throughput"`
}

type boundsResp struct {
	ServerBound       float64 `json:"server_bound"`
	ClientBound       float64 `json:"client_bound"`
	OptimalServers    float64 `json:"optimal_servers"`
	OptimalServersInt int     `json:"optimal_servers_int"`
	PeakThroughput    float64 `json:"peak_throughput"`
	UpperBoundBeta    float64 `json:"upper_bound_beta"`
}

type generalResp struct {
	R      []float64 `json:"r"`
	X      []float64 `json:"x"`
	Rw     []float64 `json:"rw"`
	Rq     []float64 `json:"rq"`
	Ry     []float64 `json:"ry"`
	Qq     []float64 `json:"qq"`
	Qy     []float64 `json:"qy"`
	Uq     []float64 `json:"uq"`
	Uy     []float64 `json:"uy"`
	TotalX float64   `json:"total_x"`
}

type lockResp struct {
	X           float64 `json:"x"`
	R           float64 `json:"r"`
	Rs          float64 `json:"rs"`
	Wait        float64 `json:"wait"`
	Q           float64 `json:"q"`
	U           float64 `json:"u"`
	SerialBound float64 `json:"serial_bound"`
	Uncontended float64 `json:"uncontended_bound"`
}

type lockFreeResp struct {
	X            float64  `json:"x"`
	R            float64  `json:"r"`
	Attempts     float64  `json:"attempts"`
	Conflict     float64  `json:"conflict"`
	U            float64  `json:"u"`
	SerialBound  *float64 `json:"serial_bound,omitempty"`
	ConflictFree float64  `json:"conflict_free_bound"`
}

type fitResp struct {
	St      float64 `json:"st"`
	So      float64 `json:"so"`
	RMSE    float64 `json:"rmse"`
	RelRMSE float64 `json:"rel_rmse"`
}

type sweepResp struct {
	Points  int               `json:"points"`
	Jobs    int               `json:"jobs"`
	Results []json.RawMessage `json:"results"`
}

// oracle solves each cold request straight through core and fit —
// the same parameter stream the server saw — and renders the body the
// server should have answered. On the traced half it also times each
// solve (core.solve_us.*) and records its convergence (core.iters.*).
type oracle struct {
	// allToAll is the all-to-all solver the check trusts; a test swaps
	// in a disagreeing one to show the check catches it.
	allToAll func(core.Params, obs.SolveObserver) (core.AllToAllResult, error)

	tr     *tracer
	parent int
	// conv and fitConv record convergence on the traced half only.
	conv, fitConv   *obs.ConvRecorder
	coreReg, fitReg *obs.Registry

	sweepBusy, sweepWall time.Duration
	sweepPts             int
}

func newOracle() *oracle { return &oracle{allToAll: core.AllToAllObserved} }

// observe starts recording convergence and runner occupancy.
func (o *oracle) observe() {
	o.coreReg, o.fitReg = obs.NewRegistry(), obs.NewRegistry()
	o.conv = obs.NewConvRecorder(0, clock.System, o.coreReg)
	o.fitConv = obs.NewConvRecorder(0, clock.System, o.fitReg)
	o.sweepBusy, o.sweepWall, o.sweepPts = 0, 0, 0
}

// observer returns the core observer, or a true nil when not recording.
func (o *oracle) observer(c *obs.ConvRecorder) obs.SolveObserver {
	if c == nil {
		return nil
	}
	return c
}

func (o *oracle) allToAllBody(parent int, p core.Params) ([]byte, error) {
	id := o.tr.start(parent, "core", core.SolverAllToAll)
	res, err := o.allToAll(p, o.observer(o.conv))
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(alltoallResp{
		R: res.R, Rw: res.Rw, Rq: res.Rq, Ry: res.Ry,
		Qq: res.Qq, Qy: res.Qy, Uq: res.Uq, Uy: res.Uy,
		X:                  res.X,
		ContentionFree:     res.ContentionFree,
		UpperBound:         res.UpperBound,
		Contention:         res.Contention(),
		ContentionFraction: res.ContentionFraction(),
		RuleOfThumb:        p.RuleOfThumb(),
	})
}

func (o *oracle) workpileBody(p core.ClientServerParams) ([]byte, error) {
	id := o.tr.start(o.parent, "core", core.SolverClientServer)
	defer o.tr.end(id)
	if p.Ps == 0 {
		opt, err := core.OptimalServersInt(p)
		if err != nil {
			return nil, err
		}
		p.Ps = opt
	}
	res, err := core.ClientServerObserved(p, o.observer(o.conv))
	if err != nil {
		return nil, err
	}
	return json.Marshal(workpileResp{
		Ps: p.Ps, X: res.X, R: res.R, Rs: res.Rs, Qs: res.Qs, Us: res.Us,
		OptimalServers: core.OptimalServers(p),
		PeakThroughput: core.PeakThroughput(p),
	})
}

func (o *oracle) boundsBody(p core.ClientServerParams) ([]byte, error) {
	id := o.tr.start(o.parent, "core", "bounds")
	defer o.tr.end(id)
	if p.Ps == 0 {
		p.Ps = 1
	}
	server, client := core.ClientServerBounds(p)
	opt, err := core.OptimalServersInt(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(boundsResp{
		ServerBound:       server,
		ClientBound:       client,
		OptimalServers:    core.OptimalServers(p),
		OptimalServersInt: opt,
		PeakThroughput:    core.PeakThroughput(p),
		UpperBoundBeta:    core.UpperBoundBeta(p.C2),
	})
}

func (o *oracle) generalBody(p core.GeneralParams) ([]byte, error) {
	id := o.tr.start(o.parent, "core", core.SolverGeneral)
	res, err := core.GeneralObserved(p, o.observer(o.conv))
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(generalResp{
		R: res.R, X: res.X, Rw: res.Rw, Rq: res.Rq, Ry: res.Ry,
		Qq: res.Qq, Qy: res.Qy, Uq: res.Uq, Uy: res.Uy,
		TotalX: res.TotalX,
	})
}

func (o *oracle) lockBody(p core.LockParams) ([]byte, error) {
	id := o.tr.start(o.parent, "core", core.SolverLock)
	res, err := core.LockObserved(p, o.observer(o.conv))
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	serial, unc := core.LockBounds(p)
	return json.Marshal(lockResp{
		X: res.X, R: res.R, Rs: res.Rs, Wait: res.Wait, Q: res.Q, U: res.U,
		SerialBound: serial, Uncontended: unc,
	})
}

func (o *oracle) lockFreeBody(p core.LockFreeParams) ([]byte, error) {
	id := o.tr.start(o.parent, "core", core.SolverLockFree)
	res, err := core.LockFreeObserved(p, o.observer(o.conv))
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	serial, free := core.LockFreeBounds(p)
	out := lockFreeResp{
		X: res.X, R: res.R, Attempts: res.Attempts, Conflict: res.Conflict, U: res.U,
		ConflictFree: free,
	}
	if !math.IsInf(serial, 1) {
		out.SerialBound = &serial
	}
	return json.Marshal(out)
}

func (o *oracle) fitBody(obsv []fit.Observation, p int, c2 float64) ([]byte, error) {
	id := o.tr.start(o.parent, "fit", "alltoall")
	res, err := fit.AllToAllObserved(obsv, p, c2, o.observer(o.fitConv))
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(fitResp{St: res.St, So: res.So, RMSE: res.RMSE, RelRMSE: res.RelRMSE})
}

// sweepBody fans the points out through runner.Map at the request's
// job count, as the server does.
func (o *oracle) sweepBody(ps []core.Params) ([]byte, error) {
	clk := clock.System
	id := o.tr.start(o.parent, "runner", "sweep")
	busy := make([]time.Duration, len(ps))
	t0 := clk.Now()
	results, err := runner.Map(len(ps), runner.Options{Jobs: sweepJobs}, func(i int) (json.RawMessage, error) {
		s := clk.Now()
		data, err := o.allToAllBody(id, ps[i])
		busy[i] = clk.Now().Sub(s)
		return data, err
	})
	wall := clk.Now().Sub(t0)
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	o.sweepWall += wall
	o.sweepPts += len(ps)
	for _, b := range busy {
		o.sweepBusy += b
	}
	return json.Marshal(sweepResp{Points: len(results), Jobs: sweepJobs, Results: results})
}

// layers reports the core, fit and runner metrics of the traced half.
func (o *oracle) layers(tr *tracer, fits int, out map[string]float64) {
	cs := scrape(o.coreReg)
	var trips, solves float64
	for _, s := range coreSolvers {
		lbl := `{solver="` + s + `"}`
		out["core.solve_us."+s] = tr.meanUS("core", s)
		out["core.iters."+s] = ratio(cs["lopc_solve_iterations_sum"+lbl], cs["lopc_solve_iterations_count"+lbl])
		trips += cs["lopc_solve_guard_trips_total"+lbl]
		solves += cs["lopc_solves_total"+lbl]
	}
	out["core.guard_trips"] = ratio(trips, solves)
	out["fit.solve_ms"] = tr.meanUS("fit", "alltoall") / 1000
	out["fit.iters"] = ratio(scrape(o.fitReg)[`lopc_solves_total{solver="alltoall"}`], float64(fits))
	out["runner.sweep_point_us"] = ratio(o.sweepWall.Seconds()*1e6, float64(o.sweepPts))
	out["runner.busy_ratio"] = ratio(o.sweepBusy.Seconds(), sweepJobs*o.sweepWall.Seconds())
}
