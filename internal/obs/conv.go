package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/clock"
)

// SolveStats describes one completed fixed-point solve, as reported by
// the AMVA solvers in internal/core and internal/mva.
type SolveStats struct {
	// Iters is the number of fixed-point iterations the solve took.
	Iters int
	// Residual is the final convergence residual (max successive-iterate
	// delta), the quantity compared against the solver's tolerance.
	Residual float64
	// Converged reports whether the solve met its tolerance (false on
	// budget exhaustion or divergence).
	Converged bool
	// GuardTrips counts iterations on which a feasibility guard fired:
	// an infeasible trial iterate pushed back into the feasible region,
	// or a utilization clamped below saturation. A solve with many guard
	// trips converged, but near the edge of the model's domain.
	GuardTrips int
	// MaxUtil is the peak utilization the iteration visited — how close
	// the solve came to the saturation (divergence) guards; 1 is the
	// wall.
	MaxUtil float64
	// Err is the solve error message, "" on success.
	Err string
}

// SolveObserver is the seam solvers report through. BeginSolve is
// called as a solve starts and returns the completion func, so the
// observer — not the deterministic solver package — brackets wall time
// on its own injected clock. Solvers hold a nil-check-only cost when
// observation is off: one comparison per solve, nothing per iteration.
type SolveObserver interface {
	BeginSolve(solver string) func(SolveStats)
}

// SolveTrace is one recorded solve in a ConvRecorder's ring buffer.
type SolveTrace struct {
	// Seq numbers solves in completion order, starting at 1; it keeps
	// counting when the ring evicts, so gaps reveal eviction.
	Seq        int     `json:"seq"`
	Solver     string  `json:"solver"`
	Iters      int     `json:"iters"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
	GuardTrips int     `json:"guard_trips,omitempty"`
	MaxUtil    float64 `json:"max_util,omitempty"`
	WallUS     int64   `json:"wall_us"`
	Err        string  `json:"err,omitempty"`
}

// ConvRecorder implements SolveObserver: it keeps the most recent
// solves in a fixed-capacity ring buffer, exportable as JSON or CSV,
// and (when given a Registry) mirrors them into metrics: per-solver
// solve/error/guard-trip counters and iteration/wall-time histograms.
type ConvRecorder struct {
	clk clock.Clock
	reg *Registry

	mu    sync.Mutex
	ring  []SolveTrace
	cap   int
	next  int // ring insertion point once full
	total int
	// inst caches each solver's registry instruments, resolved on the
	// solver's first solve; nil without a registry.
	inst map[string]*solverInstruments
}

// solverInstruments are one solver's mirrored metrics. errors and
// guardTrips stay nil until the solver's first error or guard trip, so
// their series appear in the exposition only once something happened.
type solverInstruments struct {
	labels             Labels
	solves             *Counter
	errors, guardTrips *Counter
	iters, wall        *Histogram
}

// DefaultConvCapacity is the ring size NewConvRecorder uses for
// capacity <= 0.
const DefaultConvCapacity = 1024

// NewConvRecorder builds a recorder holding the last capacity solves
// (<= 0 means DefaultConvCapacity). clk supplies solve wall times; nil
// means clock.System — tests inject a clock.Fake so recorded WallUS
// values are deterministic. reg, when non-nil, receives the mirrored
// metrics.
func NewConvRecorder(capacity int, clk clock.Clock, reg *Registry) *ConvRecorder {
	if capacity <= 0 {
		capacity = DefaultConvCapacity
	}
	if clk == nil {
		clk = clock.System
	}
	return &ConvRecorder{clk: clk, reg: reg, cap: capacity}
}

// iterBuckets spans 1 … 2^17 iterations; solves at the paper's
// parameter ranges take tens, but near-saturation points climb.
var iterBuckets = ExpBuckets(1, 2, 18)

// wallBuckets spans 1µs … ~67s in powers of two.
var wallBuckets = ExpBuckets(1, 2, 27)

// BeginSolve implements SolveObserver.
func (c *ConvRecorder) BeginSolve(solver string) func(SolveStats) {
	start := c.clk.Now()
	return func(s SolveStats) {
		wall := c.clk.Now().Sub(start)
		tr := SolveTrace{
			Solver:     solver,
			Iters:      s.Iters,
			Residual:   s.Residual,
			Converged:  s.Converged,
			GuardTrips: s.GuardTrips,
			MaxUtil:    s.MaxUtil,
			WallUS:     wall.Microseconds(),
			Err:        s.Err,
		}
		in := c.record(tr)
		if in.solves == nil {
			return
		}
		in.solves.Inc()
		if s.Err != "" {
			in.errors.Inc()
		}
		if s.GuardTrips > 0 {
			in.guardTrips.Add(int64(s.GuardTrips))
		}
		in.iters.Observe(float64(s.Iters))
		in.wall.Observe(float64(wall.Microseconds()))
	}
}

// record appends tr to the ring and, with a registry, returns the
// solver's instruments (the zero value without one). It resolves them
// under the ring lock on the solver's first solve, and the error and
// guard-trip counters on their first occurrence, so later solves make
// no registry lookups.
func (c *ConvRecorder) record(tr SolveTrace) solverInstruments {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	tr.Seq = c.total
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, tr)
	} else {
		c.ring[c.next] = tr
		c.next = (c.next + 1) % c.cap
	}
	if c.reg == nil {
		return solverInstruments{}
	}
	in := c.inst[tr.Solver]
	if in == nil {
		labels := Labels{"solver": tr.Solver}
		in = &solverInstruments{
			labels: labels,
			solves: c.reg.Counter("lopc_solves_total", "completed AMVA fixed-point solves", labels),
			iters:  c.reg.Histogram("lopc_solve_iterations", "fixed-point iterations per solve", labels, iterBuckets),
			wall:   c.reg.Histogram("lopc_solve_wall_us", "solve wall time in microseconds", labels, wallBuckets),
		}
		if c.inst == nil {
			c.inst = map[string]*solverInstruments{}
		}
		c.inst[tr.Solver] = in
	}
	if tr.Err != "" && in.errors == nil {
		in.errors = c.reg.Counter("lopc_solve_errors_total", "solves that returned an error", in.labels)
	}
	if tr.GuardTrips > 0 && in.guardTrips == nil {
		in.guardTrips = c.reg.Counter("lopc_solve_guard_trips_total", "iterations pushed back or clamped by a feasibility guard", in.labels)
	}
	return *in
}

// Total returns the number of solves recorded since construction,
// including ones the ring has evicted.
func (c *ConvRecorder) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Traces returns the retained solves, oldest first.
func (c *ConvRecorder) Traces() []SolveTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SolveTrace, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// convDoc is the JSON export envelope.
type convDoc struct {
	Total    int          `json:"total"`
	Capacity int          `json:"capacity"`
	Traces   []SolveTrace `json:"traces"`
}

// WriteJSON exports the retained traces as one JSON document with the
// total solve count and ring capacity alongside.
func (c *ConvRecorder) WriteJSON(w io.Writer) error {
	doc := convDoc{Total: c.Total(), Capacity: c.cap, Traces: c.Traces()}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// convCSVHeader is the column order of WriteCSV.
var convCSVHeader = []string{"seq", "solver", "iters", "residual", "converged", "guard_trips", "max_util", "wall_us", "err"}

// WriteCSV exports the retained traces as CSV, one row per solve.
func (c *ConvRecorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(convCSVHeader); err != nil {
		return err
	}
	for _, tr := range c.Traces() {
		row := []string{
			strconv.Itoa(tr.Seq),
			tr.Solver,
			strconv.Itoa(tr.Iters),
			strconv.FormatFloat(tr.Residual, 'g', -1, 64),
			strconv.FormatBool(tr.Converged),
			strconv.Itoa(tr.GuardTrips),
			strconv.FormatFloat(tr.MaxUtil, 'g', -1, 64),
			strconv.FormatInt(tr.WallUS, 10),
			tr.Err,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile exports the retained traces to path, choosing the format by
// extension: .csv writes CSV, everything else JSON.
func (c *ConvRecorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if filepath.Ext(path) == ".csv" {
		werr = c.WriteCSV(f)
	} else {
		werr = c.WriteJSON(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: writing convergence trace %s: %w", path, werr)
	}
	return nil
}
