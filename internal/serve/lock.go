package serve

import (
	"math"
	"net/http"

	"repro/internal/core"
)

// --- /v1/lock ---

type lockRequest struct {
	Threads int     `json:"threads"`
	W       float64 `json:"w"`
	St      float64 `json:"st"`
	So      float64 `json:"so"`
	C2      float64 `json:"c2"`
}

type lockResponse struct {
	X           float64 `json:"x"`
	R           float64 `json:"r"`
	Rs          float64 `json:"rs"`
	Wait        float64 `json:"wait"`
	Q           float64 `json:"q"`
	U           float64 `json:"u"`
	SerialBound float64 `json:"serial_bound"`
	Uncontended float64 `json:"uncontended_bound"`
}

func (s *Server) handleLock(w http.ResponseWriter, r *http.Request) {
	var req lockRequest
	if !decodeRequest(w, r, req.decode) {
		return
	}
	p := core.LockParams{Threads: req.Threads, W: req.W, St: req.St, So: req.So, C2: req.C2}
	if err := p.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	k := newKeyWriter()
	defer k.free()
	data, o, err := s.cache.get(k.lock(p), func() ([]byte, error) {
		return s.admit(r.Context(), func() ([]byte, error) {
			res, err := core.LockObserved(p, s.conv)
			if err != nil {
				return nil, err
			}
			serial, unc := core.LockBounds(p)
			return marshalResponse(lockResponse{
				X: res.X, R: res.R, Rs: res.Rs, Wait: res.Wait,
				Q: res.Q, U: res.U,
				SerialBound: serial, Uncontended: unc,
			})
		})
	})
	if err != nil {
		writeSolveError(w, err)
		return
	}
	s.writeCached(w, data, o)
}

// --- /v1/lockfree ---

type lockFreeRequest struct {
	Threads int     `json:"threads"`
	W       float64 `json:"w"`
	St      float64 `json:"st"`
	So      float64 `json:"so"`
	C2      float64 `json:"c2"`
}

type lockFreeResponse struct {
	X        float64 `json:"x"`
	R        float64 `json:"r"`
	Attempts float64 `json:"attempts"`
	Conflict float64 `json:"conflict"`
	U        float64 `json:"u"`
	// SerialBound is omitted when St = 0: the model then has no hard
	// throughput ceiling (the mathematical bound is infinite, which
	// JSON cannot carry).
	SerialBound  *float64 `json:"serial_bound,omitempty"`
	ConflictFree float64  `json:"conflict_free_bound"`
}

func (s *Server) handleLockFree(w http.ResponseWriter, r *http.Request) {
	var req lockFreeRequest
	if !decodeRequest(w, r, req.decode) {
		return
	}
	p := core.LockFreeParams{Threads: req.Threads, W: req.W, St: req.St, So: req.So, C2: req.C2}
	if err := p.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	k := newKeyWriter()
	defer k.free()
	data, o, err := s.cache.get(k.lockFree(p), func() ([]byte, error) {
		return s.admit(r.Context(), func() ([]byte, error) {
			res, err := core.LockFreeObserved(p, s.conv)
			if err != nil {
				return nil, err
			}
			serial, free := core.LockFreeBounds(p)
			out := lockFreeResponse{
				X: res.X, R: res.R, Attempts: res.Attempts,
				Conflict: res.Conflict, U: res.U,
				ConflictFree: free,
			}
			if !math.IsInf(serial, 1) {
				out.SerialBound = &serial
			}
			return marshalResponse(out)
		})
	})
	if err != nil {
		writeSolveError(w, err)
		return
	}
	s.writeCached(w, data, o)
}
