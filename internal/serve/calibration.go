package serve

import (
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/fit"
)

// The calibration surface closes the model-in-the-loop feedback edge:
// /v1/calibration reports what the online estimator has learned from
// this server's own traffic, and /v1/whatif answers capacity questions
// ("what if I added two workers?") by re-solving the work-pile model at
// the live fitted parameters instead of hand-supplied ones. Both routes
// exist only when Config.Calibration (or an injected estimator) is set.

// handleCalibration serves the estimator's full state: the blended
// (W, St, So, C²) fit, window statistics, CUSUM drift state, and
// per-stream sample counts.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request, _ *reqTiming) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		_ = writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	_ = writeJSON(w, http.StatusOK, s.calib.Snapshot())
}

// whatifRequest describes a hypothetical deployment change. Exactly one
// of servers (absolute) and add_servers (delta) may move the pool size.
// The scenario holds the closed population P fixed and reallocates it
// between clients and servers — the paper's Chapter 6 question ("how
// many of these processors should serve?"), so under low contention
// adding servers costs throughput: each new server is one fewer
// client. scale_w scales the fitted think time (1 or omitted keeps
// it), which models offered-load changes: halving W doubles how often
// each client comes back.
type whatifRequest struct {
	Servers    int     `json:"servers"`
	AddServers int     `json:"add_servers"`
	ScaleW     float64 `json:"scale_w"`
}

var whatifPlan = newRequestPlan[whatifRequest]()

// whatifPoint is one solved operating point.
type whatifPoint struct {
	Ps int `json:"ps"`
	// WUS is the think time the point was solved at (microseconds).
	WUS float64 `json:"w_us"`
	// X is requests per microsecond; R and Rs the cycle and server
	// response times (Eqs. 6.7, 6.5); U the per-server utilization.
	X   float64 `json:"x_per_us"`
	RUS float64 `json:"r_us"`
	Rs  float64 `json:"rs_us"`
	U   float64 `json:"utilization"`
}

type whatifResponse struct {
	// P is the modeled closed population; Fit the live parameterization
	// both points were solved with.
	P   int           `json:"p"`
	Fit fit.WindowFit `json:"fit"`
	// Baseline is today's configuration at the fitted parameters;
	// Scenario is the hypothetical.
	Baseline whatifPoint `json:"baseline"`
	Scenario whatifPoint `json:"scenario"`
	// SpeedupX is scenario throughput over baseline throughput;
	// LatencyRatio is scenario server response over baseline's.
	SpeedupX     float64 `json:"speedup_x"`
	LatencyRatio float64 `json:"latency_ratio"`
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request, _ *reqTiming) {
	var req whatifRequest
	if !decodeRequest(w, r, whatifPlan, &req) {
		return
	}
	f, ok := s.calib.Params()
	if !ok {
		// No traffic window has completed yet: the model has nothing to
		// extrapolate from. Retry once a window's worth of traffic lands.
		w.Header().Set("Retry-After", "1")
		_ = writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "calibration not ready: no traffic window has been fit yet"})
		return
	}
	p, ps := s.calib.Population()

	if req.Servers != 0 && req.AddServers != 0 {
		badRequest(w, fmt.Errorf("give either servers (absolute) or add_servers (delta), not both"))
		return
	}
	ps2 := ps + req.AddServers
	if req.Servers != 0 {
		ps2 = req.Servers
	}
	if ps2 < 1 || ps2 >= p {
		badRequest(w, fmt.Errorf("scenario needs 1 <= servers < P=%d, got %d", p, ps2))
		return
	}
	scale := req.ScaleW
	//lopc:allow floateq exact-zero tests against the unset-field JSON default, not a computed value
	if scale == 0 {
		scale = 1
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		badRequest(w, fmt.Errorf("scale_w = %v must be positive and finite", req.ScaleW))
		return
	}

	solve := func(ps int, wt float64) (whatifPoint, error) {
		res, err := core.ClientServerObserved(core.ClientServerParams{
			P: p, Ps: ps, W: wt, St: f.St, So: f.So, C2: f.C2,
		}, s.conv)
		if err != nil {
			return whatifPoint{}, err
		}
		return whatifPoint{Ps: ps, WUS: wt, X: res.X, RUS: res.R, Rs: res.Rs, U: res.Us}, nil
	}
	base, err := solve(ps, f.W)
	if err != nil {
		writeSolveError(w, fmt.Errorf("baseline: %w", err))
		return
	}
	scen, err := solve(ps2, f.W*scale)
	if err != nil {
		writeSolveError(w, fmt.Errorf("scenario: %w", err))
		return
	}
	_ = writeJSON(w, http.StatusOK, whatifResponse{
		P: p, Fit: f,
		Baseline:     base,
		Scenario:     scen,
		SpeedupX:     scen.X / base.X,
		LatencyRatio: scen.Rs / base.Rs,
	})
}
