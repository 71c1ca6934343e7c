package core

import (
	"io"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detguard"
	"repro/internal/obs"
)

// observed renders a solve reported to a fresh ConvRecorder: the
// result, then the recorder's CSV (iterations, residual, guard trips,
// utilization; the fake clock keeps wall times at zero).
func observed(solve func(o obs.SolveObserver) (any, error)) func(w io.Writer) error {
	return func(w io.Writer) error {
		rec := obs.NewConvRecorder(8, clock.NewFake(time.Unix(0, 0)), nil)
		if err := detguard.Value(func() (any, error) { return solve(rec) })(w); err != nil {
			return err
		}
		return rec.WriteCSV(w)
	}
}

// TestOutputsRepeat renders every exported result of the package
// detguard.Runs times and requires identical bytes each time. The
// general model runs a P=8 work-pile with four servers of unequal So
// and four clients whose works are chosen so that every rotation of
// the sum of their throughputs rounds differently: a sum over threads
// or servers taken in map order moves the last bits of the result.
func TestOutputsRepeat(t *testing.T) {
	p := Params{P: 32, W: 1000, St: 40, So: 200, C2: 1}
	cs := ClientServerParams{P: 32, Ps: 4, W: 1000, St: 40, So: 200, C2: 1}
	lock := LockParams{Threads: 16, W: 2000, St: 50, So: 100, C2: 1}
	lockFree := LockFreeParams{Threads: 16, W: 2000, St: 50, So: 100, C2: 1}
	visits := ClientServerVisits(4, 4)
	gen := GeneralParams{P: 8, W: []float64{1000, 1100, 1300, 1700, 0, 0, 0, 0}, V: visits, St: 40,
		So: []float64{1, 1, 1, 1, 150, 200, 250, 300}, C2: 0.5}
	detguard.Check(t, []detguard.Row{
		{Name: "AllToAll", Render: detguard.Value(func() (any, error) {
			r, err := AllToAll(p)
			th, rq, rp := r.Components(p)
			return []any{r, r.Contention(), r.ContentionFraction(), th, rq, rp}, err
		})},
		{Name: "AllToAllObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return AllToAllObserved(p, o) })},
		{Name: "AllToAllFrom", Render: detguard.Value(func() (any, error) { return AllToAllFrom(p, 2000, nil) })},
		{Name: "TotalRuntime", Render: detguard.Value(func() (any, error) { return TotalRuntime(p, 1000) })},
		{Name: "UpperBoundBeta", Render: detguard.Value(func() (any, error) { return []float64{UpperBoundBeta(0), UpperBoundBeta(1), UpperBoundBeta(7.5)}, nil })},
		{Name: "Params", Render: detguard.Value(func() (any, error) { return []float64{p.ContentionFree(), p.RuleOfThumb()}, p.Validate() })},
		{Name: "ClientServer", Render: detguard.Value(func() (any, error) { return ClientServer(cs) })},
		{Name: "ClientServerObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return ClientServerObserved(cs, o) })},
		{Name: "OptimalServers", Render: detguard.Value(func() (any, error) {
			n, err := OptimalServersInt(cs)
			server, client := ClientServerBounds(cs)
			return []any{OptimalServerRs(200, 1), OptimalServers(cs), n, server, client, PeakThroughput(cs)}, err
		})},
		{Name: "MatVec", Render: detguard.Value(func() (any, error) {
			w, msgs, err := MatVec(1024, 32, 0.5)
			return []any{w, msgs}, err
		})},
		{Name: "General", Render: detguard.Value(func() (any, error) { return General(gen) })},
		{Name: "GeneralObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return GeneralObserved(gen, o) })},
		{Name: "Visits", Render: detguard.Value(func() (any, error) {
			return [][][]float64{HomogeneousVisits(5), ClientServerVisits(3, 2), MultiHopVisits(6, 3)}, nil
		})},
		{Name: "Lock", Render: detguard.Value(func() (any, error) {
			r, err := Lock(lock)
			serial, free := LockBounds(lock)
			return []any{r, serial, free}, err
		})},
		{Name: "LockObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return LockObserved(lock, o) })},
		{Name: "LockFree", Render: detguard.Value(func() (any, error) {
			r, err := LockFree(lockFree)
			serial, free := LockFreeBounds(lockFree)
			return []any{r, serial, free}, err
		})},
		{Name: "LockFreeObserved", Render: observed(func(o obs.SolveObserver) (any, error) { return LockFreeObserved(lockFree, o) })},
		{Name: "Multithreaded", Render: detguard.Value(func() (any, error) { return Multithreaded(p, 4) })},
		{Name: "NonBlocking", Render: detguard.Value(func() (any, error) { return NonBlocking(p) })},
	})
}
