package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/runner"
)

// Error taxonomy: malformed or invalid requests answer 400, admission
// rejections answer 429/503 with Retry-After (see admission.go), and
// structurally valid parameters on which the model itself has no
// feasible solution (a saturated node, a divergent fixed point) answer
// 422 — the client's parameters are the problem, not the request shape
// and not the server.

// errorResponse is the JSON error envelope of every non-2xx API answer.
type errorResponse struct {
	Error string `json:"error"`
}

// decodeRequest parses one JSON request body strictly into the request
// struct dst through its plan pl (see decode.go): POST only, unknown
// fields rejected, trailing garbage rejected. It writes the error
// response itself and reports whether the handler should go on.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, pl *requestPlan[T], dst *T) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		_ = writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST with a JSON body"})
		return false
	}
	d := decoderPool.Get().(*decoder)
	err := d.load(r.Body)
	if err == nil {
		err = pl.decode(d, dst)
	}
	d.free()
	switch {
	case errors.Is(err, errTrailing):
		_ = writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	case err != nil:
		_ = writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return false
	}
	return true
}

// badRequest answers 400 with the validation error.
func badRequest(w http.ResponseWriter, err error) {
	_ = writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// writeSolveError classifies a failed solve: admission rejections keep
// their status and Retry-After hint, everything else is a model
// infeasibility (422).
func writeSolveError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
		_ = writeJSON(w, shed.status, errorResponse{Error: shed.reason})
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		w.Header().Set("Retry-After", "1")
		_ = writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	_ = writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
}

// recordOutcome bumps the cache counter of outcome o.
func (s *Server) recordOutcome(o outcome) {
	switch o {
	case outcomeHit:
		s.met.cacheHits.Add(1)
	case outcomeCollapsed:
		s.met.cacheCollapsed.Add(1)
	default:
		s.met.cacheMisses.Add(1)
	}
}

// The fixed parts of a cached response. writeCached assigns the header
// slices to the header map directly: the keys are already canonical, so
// Header.Set's canonicalization and per-call slice buy nothing, and
// net/http only ever reads header values.
var (
	cacheHeader = [...][]string{
		outcomeMiss:      {"miss"},
		outcomeHit:       {"hit"},
		outcomeCollapsed: {"collapsed"},
	}
	jsonContentType = []string{"application/json"}
	newline         = []byte("\n")
)

// writeCached writes one cached (or just-solved) response body. The
// stored bytes carry no cache markers — hit and cold responses are
// byte-identical — so the outcome travels in the X-Lopc-Cache header
// instead.
func (s *Server) writeCached(w http.ResponseWriter, data []byte, o outcome) {
	s.recordOutcome(o)
	h := w.Header()
	h["X-Lopc-Cache"] = cacheHeader[o]
	h["Content-Type"] = jsonContentType
	if _, err := w.Write(data); err != nil {
		return
	}
	_, _ = w.Write(newline)
}

// --- /v1/alltoall ---

type alltoallRequest struct {
	P                 int     `json:"p"`
	W                 float64 `json:"w"`
	St                float64 `json:"st"`
	So                float64 `json:"so"`
	C2                float64 `json:"c2"`
	ProtocolProcessor bool    `json:"protocol_processor"`
	Priority          string  `json:"priority"` // "", "bkt", or "shadow"
	N                 int     `json:"n"`        // requests per thread; > 0 adds total_runtime
}

type alltoallResponse struct {
	R                  float64  `json:"r"`
	Rw                 float64  `json:"rw"`
	Rq                 float64  `json:"rq"`
	Ry                 float64  `json:"ry"`
	Qq                 float64  `json:"qq"`
	Qy                 float64  `json:"qy"`
	Uq                 float64  `json:"uq"`
	Uy                 float64  `json:"uy"`
	X                  float64  `json:"x"`
	ContentionFree     float64  `json:"contention_free"`
	UpperBound         float64  `json:"upper_bound"`
	Contention         float64  `json:"contention"`
	ContentionFraction float64  `json:"contention_fraction"`
	RuleOfThumb        float64  `json:"rule_of_thumb"`
	TotalRuntime       *float64 `json:"total_runtime,omitempty"`
}

// allToAllParams is one all-to-all solve: the model parameters and the
// request count n (> 0 adds total_runtime).
type allToAllParams struct {
	core.Params
	N int
}

// params converts the wire request into model parameters; the priority
// string is validated here, everything numeric by core's own Validate.
func (q *alltoallRequest) params() (allToAllParams, error) {
	p := core.Params{
		P: q.P, W: q.W, St: q.St, So: q.So, C2: q.C2,
		ProtocolProcessor: q.ProtocolProcessor,
	}
	switch q.Priority {
	case "", "bkt":
		p.Priority = core.BKT
	case "shadow", "shadow-server":
		p.Priority = core.ShadowServer
	default:
		return allToAllParams{}, fmt.Errorf("unknown priority %q (want \"bkt\" or \"shadow\")", q.Priority)
	}
	if q.N < 0 {
		return allToAllParams{}, fmt.Errorf("negative request count n = %d", q.N)
	}
	return allToAllParams{Params: p, N: q.N}, p.Validate()
}

// solveAllToAll computes the full single-solve payload, reporting the
// fixed-point convergence to the server's ConvRecorder.
func solveAllToAll(s *Server, a allToAllParams) (alltoallResponse, error) {
	p := a.Params
	res, err := core.AllToAllObserved(p, s.conv)
	if err != nil {
		return alltoallResponse{}, err
	}
	out := alltoallResponse{
		R: res.R, Rw: res.Rw, Rq: res.Rq, Ry: res.Ry,
		Qq: res.Qq, Qy: res.Qy, Uq: res.Uq, Uy: res.Uy,
		X:                  res.X,
		ContentionFree:     res.ContentionFree,
		UpperBound:         res.UpperBound,
		Contention:         res.Contention(),
		ContentionFraction: res.ContentionFraction(),
		RuleOfThumb:        p.RuleOfThumb(),
	}
	if a.N > 0 {
		// core.TotalRuntime's n·R, without solving the point again.
		total := float64(a.N) * res.R
		out.TotalRuntime = &total
	}
	return out, nil
}

// --- /v1/workpile ---

type workpileRequest struct {
	P  int     `json:"p"`
	Ps int     `json:"ps"` // 0: solve at the optimal allocation
	W  float64 `json:"w"`
	St float64 `json:"st"`
	So float64 `json:"so"`
	C2 float64 `json:"c2"`
}

type workpileResponse struct {
	Ps             int     `json:"ps"` // the split actually solved
	X              float64 `json:"x"`
	R              float64 `json:"r"`
	Rs             float64 `json:"rs"`
	Qs             float64 `json:"qs"`
	Us             float64 `json:"us"`
	OptimalServers float64 `json:"optimal_servers"`
	PeakThroughput float64 `json:"peak_throughput"`
}

func (q *workpileRequest) params() (core.ClientServerParams, error) {
	p := core.ClientServerParams{P: q.P, Ps: q.Ps, W: q.W, St: q.St, So: q.So, C2: q.C2}
	if q.Ps == 0 {
		// Validate the rest of the tuple at a placeholder split; the
		// real split is solved from Eq. 6.8 during the solve.
		probe := p
		probe.Ps = 1
		return p, probe.Validate()
	}
	return p, p.Validate()
}

func solveWorkpile(s *Server, p core.ClientServerParams) (workpileResponse, error) {
	if p.Ps == 0 {
		opt, err := core.OptimalServersInt(p)
		if err != nil {
			return workpileResponse{}, err
		}
		p.Ps = opt
	}
	res, err := core.ClientServerObserved(p, s.conv)
	if err != nil {
		return workpileResponse{}, err
	}
	return workpileResponse{
		Ps: p.Ps, X: res.X, R: res.R, Rs: res.Rs, Qs: res.Qs, Us: res.Us,
		OptimalServers: core.OptimalServers(p),
		PeakThroughput: core.PeakThroughput(p),
	}, nil
}

// --- /v1/bounds ---

type boundsResponse struct {
	ServerBound       float64 `json:"server_bound"`
	ClientBound       float64 `json:"client_bound"`
	OptimalServers    float64 `json:"optimal_servers"`
	OptimalServersInt int     `json:"optimal_servers_int"`
	PeakThroughput    float64 `json:"peak_throughput"`
	UpperBoundBeta    float64 `json:"upper_bound_beta"`
}

// boundsParams reads a work-pile request; bounds need a concrete split,
// so an unset one takes the conventional floor of 1.
func boundsParams(q *workpileRequest) (core.ClientServerParams, error) {
	p, err := q.params()
	if p.Ps == 0 {
		p.Ps = 1
	}
	return p, err
}

func solveBounds(_ *Server, p core.ClientServerParams) (boundsResponse, error) {
	server, client := core.ClientServerBounds(p)
	opt, err := core.OptimalServersInt(p)
	if err != nil {
		return boundsResponse{}, err
	}
	return boundsResponse{
		ServerBound:       server,
		ClientBound:       client,
		OptimalServers:    core.OptimalServers(p),
		OptimalServersInt: opt,
		PeakThroughput:    core.PeakThroughput(p),
		UpperBoundBeta:    core.UpperBoundBeta(p.C2),
	}, nil
}

// --- /v1/general ---

type generalRequest struct {
	P                 int         `json:"p"`
	W                 []float64   `json:"w"`
	V                 [][]float64 `json:"v"`
	St                float64     `json:"st"`
	So                []float64   `json:"so"`
	C2                float64     `json:"c2"`
	ProtocolProcessor bool        `json:"protocol_processor"`
}

type generalResponse struct {
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

func (q *generalRequest) params() (core.GeneralParams, error) {
	p := core.GeneralParams{
		P: q.P, W: q.W, V: q.V, St: q.St, So: q.So, C2: q.C2,
		ProtocolProcessor: q.ProtocolProcessor,
	}
	return p, p.Validate()
}

func solveGeneral(s *Server, p core.GeneralParams) (generalResponse, error) {
	res, err := core.GeneralObserved(p, s.conv)
	if err != nil {
		return generalResponse{}, err
	}
	return generalResponse{
		R: res.R, X: res.X, Rw: res.Rw, Rq: res.Rq, Ry: res.Ry,
		Qq: res.Qq, Qy: res.Qy, Uq: res.Uq, Uy: res.Uy,
		TotalX: res.TotalX,
	}, nil
}

// --- /v1/fit ---

type fitRequest struct {
	P            int              `json:"p"`
	C2           float64          `json:"c2"`
	Observations []fitObservation `json:"observations"`
}

type fitObservation struct {
	W  float64 `json:"w"`
	R  float64 `json:"r"`
	Rq float64 `json:"rq"`
}

type fitResponse struct {
	St      float64 `json:"st"`
	So      float64 `json:"so"`
	RMSE    float64 `json:"rmse"`
	RelRMSE float64 `json:"rel_rmse"`
}

// fitParams are a fit's arguments.
type fitParams struct {
	Obs []fit.Observation
	P   int
	C2  float64
}

// params checks the fit's arguments before it is keyed or admitted, so
// a fit that cannot run never takes a solver slot.
func (q *fitRequest) params() (fitParams, error) {
	obs := make([]fit.Observation, len(q.Observations))
	for i, o := range q.Observations {
		obs[i] = fit.Observation{W: o.W, R: o.R, Rq: o.Rq}
	}
	return fitParams{Obs: obs, P: q.P, C2: q.C2}, fit.CheckAllToAll(obs, q.P, q.C2)
}

func solveFit(s *Server, p fitParams) (fitResponse, error) {
	res, err := fit.AllToAllObserved(p.Obs, p.P, p.C2, s.conv)
	if err != nil {
		return fitResponse{}, err
	}
	return fitResponse{St: res.St, So: res.So, RMSE: res.RMSE, RelRMSE: res.RelRMSE}, nil
}

// --- /v1/sweep ---

type sweepRequest struct {
	Points []alltoallRequest `json:"points"`
	Jobs   int               `json:"jobs"` // fan-out width; clamped to the server cap
}

var sweepPlan = newRequestPlan[sweepRequest]()

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, t *reqTiming) {
	var req sweepRequest
	if !decodeRequest(w, r, sweepPlan, &req) {
		return
	}
	if len(req.Points) == 0 {
		badRequest(w, errors.New("sweep needs at least one point"))
		return
	}
	if len(req.Points) > s.cfg.MaxSweepPoints {
		badRequest(w, fmt.Errorf("sweep of %d points exceeds the %d-point cap", len(req.Points), s.cfg.MaxSweepPoints))
		return
	}
	params := make([]allToAllParams, len(req.Points))
	for i := range req.Points {
		p, err := req.Points[i].params()
		if err != nil {
			badRequest(w, fmt.Errorf("point %d: %w", i, err))
			return
		}
		params[i] = p
	}
	jobs := req.Jobs
	if jobs <= 0 || jobs > s.cfg.MaxSweepJobs {
		jobs = s.cfg.MaxSweepJobs
	}

	// One admission slot covers the whole sweep; the fan-out width is
	// bounded separately by MaxSweepJobs, so a sweep can never occupy
	// more of the machine than one worker slot plus its own job cap.
	// The request deadline bounds the admission wait and the fan-out.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.adm.claim(ctx, t); err != nil {
		writeSolveError(w, err)
		return
	}
	// The whole fan-out occupies one slot, so it is one service visit.
	defer s.endService(t, s.clk.Now())

	results, err := runner.MapCtx(ctx, len(params), runner.Options{Jobs: jobs}, func(i int) ([]byte, error) {
		data, o, err := allToAll.cached(s, ctx, nil, params[i], false)
		if err != nil {
			return nil, err
		}
		s.recordOutcome(o)
		return data, nil
	})
	if err != nil {
		writeSolveError(w, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(sweepBody(results, jobs))
}

// sweepBody joins a sweep's cached point bodies into its response, the
// bytes json.Marshal gives for {points, jobs, results} with each result
// a json.RawMessage, plus a newline: a cached body is compact ASCII-only
// JSON with no <, > or & (render.go), which encoding/json's compaction
// and HTML escaping leave as it is.
func sweepBody(results [][]byte, jobs int) []byte {
	const head, mid, tail = `{"points":`, `,"jobs":`, `,"results":[`
	n := len(head) + len(mid) + len(tail) + 2*20 + len(results) + len("]}\n")
	for _, r := range results {
		n += len(r)
	}
	b := make([]byte, 0, n)
	b = append(b, head...)
	b = strconv.AppendInt(b, int64(len(results)), 10)
	b = append(b, mid...)
	b = strconv.AppendInt(b, int64(jobs), 10)
	b = append(b, tail...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r...)
	}
	return append(b, "]}\n"...)
}
