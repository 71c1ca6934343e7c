package serve

import (
	"math"

	"repro/internal/core"
)

// --- /v1/lock and /v1/lockfree ---

// lockRequest is the wire request of both the lock and the lock-free
// models.
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

func (q *lockRequest) lockParams() (core.LockParams, error) {
	p := core.LockParams{Threads: q.Threads, W: q.W, St: q.St, So: q.So, C2: q.C2}
	return p, p.Validate()
}

func (q *lockRequest) lockFreeParams() (core.LockFreeParams, error) {
	p := core.LockFreeParams{Threads: q.Threads, W: q.W, St: q.St, So: q.So, C2: q.C2}
	return p, p.Validate()
}

func solveLock(s *Server, p core.LockParams) (any, error) {
	res, err := core.LockObserved(p, s.conv)
	if err != nil {
		return nil, err
	}
	serial, unc := core.LockBounds(p)
	return lockResponse{
		X: res.X, R: res.R, Rs: res.Rs, Wait: res.Wait,
		Q: res.Q, U: res.U,
		SerialBound: serial, Uncontended: unc,
	}, nil
}

func solveLockFree(s *Server, p core.LockFreeParams) (any, error) {
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
	return out, nil
}
