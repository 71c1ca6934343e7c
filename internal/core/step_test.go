package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Differential tests: the lean step functions and the solvers built on
// them against the references in step_ref_test.go, bit for bit. Random
// trial iterates cover the feasible region and every guard region, so
// the guard paths — which a solve at ordinary parameters never reaches
// on its final iterate — are checked directly, error text included.

// sameBits reports whether a and b, values of one struct type, agree
// field by field, float64 fields compared by their bits (so -0 ≠ +0 and
// NaN payloads count) and nested structs recursively.
func sameBits(a, b any) bool {
	return sameBitsValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameBitsValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBitsValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// sameFloats reports whether got and want hold the same float64 bits,
// pairwise.
func sameFloats(got, want []float64) bool {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// stepTrials is the number of random trial iterates per step test.
const stepTrials = 20000

// logUniform draws from [lo, hi] uniformly in log scale.
func logUniform(r *rng.Stream, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// checkGuardText fails t unless a guard fired exactly when the
// reference returned an error, with the same error text.
func checkGuardText(t *testing.T, what string, fired bool, render func() error, refErr error) bool {
	t.Helper()
	switch {
	case fired != (refErr != nil):
		t.Errorf("%s: guard fired = %v, reference error %v", what, fired, refErr)
		return false
	case fired && render().Error() != refErr.Error():
		t.Errorf("%s: error %q, reference %q", what, render(), refErr)
		return false
	}
	return true
}

func TestAllToAllStepMatchesReference(t *testing.T) {
	r := rng.New(1)
	regions := map[string]int{}
	for i := 0; i < stepTrials; i++ {
		p := Params{
			P:                 2 + int(r.Uint64()%1023),
			W:                 logUniform(r, 1e-3, 1e5),
			St:                logUniform(r, 1e-3, 1e3),
			So:                logUniform(r, 1e-3, 1e3),
			C2:                4 * r.Float64(),
			ProtocolProcessor: i%3 == 0,
			Priority:          PriorityApprox(i % 2),
		}
		if i%7 == 0 {
			p.W, p.C2 = 0, 0
		}
		// Trial cycle times from far inside the infeasible region
		// (a = So/R ≫ 1) to far inside the feasible one.
		x := p.So * logUniform(r, 0.05, 200)
		a := p.So / x
		switch {
		case a >= 1:
			regions["a >= 1"]++
		case 1-a-a*a <= 0:
			regions["denom <= 0"]++
		default:
			regions["feasible"]++
		}
		it, g := allToAllStep(p, x)
		ref, err := allToAllStepRef(p, x)
		what := fmt.Sprintf("%+v at R=%v", p, x)
		if !checkGuardText(t, what, g != guardNone, func() error { return it.guardError(g, x) }, err) {
			continue
		}
		if g == guardNone && !sameFloats(
			[]float64{it.r, it.rw, it.rq, it.ry, it.qq, it.qy, it.a, it.a},
			[]float64{ref.R, ref.Rw, ref.Rq, ref.Ry, ref.Qq, ref.Qy, ref.Uq, ref.Uy}) {
			t.Errorf("%s: step %+v, reference %+v", what, it, ref)
		}
	}
	for _, region := range []string{"feasible", "denom <= 0", "a >= 1"} {
		if regions[region] == 0 {
			t.Errorf("no trial iterate in region %s (%v)", region, regions)
		}
	}
}

func TestClientServerStepMatchesReference(t *testing.T) {
	r := rng.New(2)
	regions := map[string]int{}
	for i := 0; i < stepTrials; i++ {
		np := 2 + int(r.Uint64()%255)
		p := ClientServerParams{
			P:  np,
			Ps: 1 + int(r.Uint64()%uint64(np-1)),
			W:  logUniform(r, 1e-3, 1e4),
			St: logUniform(r, 1e-3, 1e3),
			So: logUniform(r, 1e-3, 1e3),
			C2: 4 * r.Float64(),
		}
		pc, ps := float64(p.P-p.Ps), float64(p.Ps)
		rs := p.So * logUniform(r, 0.01, 1e3)
		it, g := clientServerStep(p, pc, ps, rs)
		ref, err := clientServerStepRef(p, pc, ps, rs)
		if err != nil {
			regions["us >= 1"]++
		} else {
			regions["feasible"]++
		}
		what := fmt.Sprintf("%+v at Rs=%v", p, rs)
		if !checkGuardText(t, what, g != guardNone, func() error { return it.guardError(rs) }, err) {
			continue
		}
		if g == guardNone && !sameFloats(
			[]float64{it.x, it.r, it.rsNext, it.qs, it.us},
			[]float64{ref.X, ref.R, ref.Rs, ref.Qs, ref.Us}) {
			t.Errorf("%s: step %+v, reference %+v", what, it, ref)
		}
	}
	for _, region := range []string{"feasible", "us >= 1"} {
		if regions[region] == 0 {
			t.Errorf("no trial iterate in region %s (%v)", region, regions)
		}
	}
}

func TestLockStepMatchesReference(t *testing.T) {
	r := rng.New(3)
	regions := map[string]int{}
	for i := 0; i < stepTrials; i++ {
		p := LockParams{
			Threads: 1 + int(r.Uint64()%256),
			W:       logUniform(r, 1e-3, 1e4),
			St:      logUniform(r, 1e-3, 1e3),
			So:      logUniform(r, 1e-3, 1e3),
			C2:      4 * r.Float64(),
		}
		n := float64(p.Threads)
		scale := (n - 1) / n
		rs := p.So * logUniform(r, 0.01, 1e3)
		it, g := lockStep(p, n, scale, rs)
		ref, err := lockStepRef(p, n, scale, rs)
		if err != nil {
			regions["u >= 1"]++
		} else {
			regions["feasible"]++
		}
		what := fmt.Sprintf("%+v at Rs=%v", p, rs)
		if !checkGuardText(t, what, g != guardNone, func() error { return it.guardError(rs) }, err) {
			continue
		}
		if g == guardNone && !sameFloats(
			[]float64{it.x, it.r, it.rsNext, it.q, it.u},
			[]float64{ref.X, ref.R, ref.Rs, ref.Q, ref.U}) {
			t.Errorf("%s: step %+v, reference %+v", what, it, ref)
		}
	}
	for _, region := range []string{"feasible", "u >= 1"} {
		if regions[region] == 0 {
			t.Errorf("no trial iterate in region %s (%v)", region, regions)
		}
	}
}

func TestLockFreeStepMatchesReference(t *testing.T) {
	r := rng.New(4)
	regions := map[string]int{}
	for i := 0; i < stepTrials; i++ {
		p := LockFreeParams{
			Threads: 1 + int(r.Uint64()%256),
			W:       logUniform(r, 1e-3, 1e4),
			St:      logUniform(r, 1e-3, 1e3),
			So:      logUniform(r, 1e-3, 1e3),
			C2:      4 * r.Float64(),
		}
		if i%5 == 0 {
			p.C2 = 0 // the deterministic-window branch of lockFreeConflict
		}
		if i%11 == 0 {
			p.St = 0 // no serialization ceiling: only the retry-storm guard
		}
		n := float64(p.Threads)
		x := (p.So + p.St) * logUniform(r, 1e-3, 1e3)
		it, g := lockFreeStep(p, n, x)
		ref, err := lockFreeStepRef(p, n, x)
		switch {
		case n/x*p.St >= 1:
			regions["u >= 1"]++
		case err != nil:
			regions["q >= maxConflict"]++
		default:
			regions["feasible"]++
		}
		what := fmt.Sprintf("%+v at R=%v", p, x)
		if !checkGuardText(t, what, g != guardNone, func() error { return it.guardError(g, x) }, err) {
			continue
		}
		if g == guardNone && !sameFloats(
			[]float64{it.rNext, it.attempts, it.q, it.u},
			[]float64{ref.R, ref.Attempts, ref.Conflict, ref.U}) {
			t.Errorf("%s: step %+v, reference %+v", what, it, ref)
		}
	}
	for _, region := range []string{"feasible", "u >= 1", "q >= maxConflict"} {
		if regions[region] == 0 {
			t.Errorf("no trial iterate in region %s (%v)", region, regions)
		}
	}
}

// refTol is the agreement a solve must reach with its damped reference,
// in numeric.Close's sense (relative, absolute below 1): both stop
// within 1e-10·(1+|x|) of the same fixed point, the reference often
// only just.
const refTol = 1e-8

// closeFields reports whether a and b, values of one struct type, agree
// field by field: float64 fields within refTol, float64 slices
// elementwise, nested structs recursively, and the obs.SolveStats field
// skipped (iteration counts and residuals differ by design), as are
// differenceFields.
func closeFields(a, b any) bool {
	return closeValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

var solveStatsType = reflect.TypeOf(obs.SolveStats{})

// differenceFields are result fields computed as the difference of two
// others (LockResult.Wait = Rs − So). Their agreement follows from
// their terms'; on their own they can be far below the tolerance both
// solves stop at (an uncontended lock waits almost nothing), so their
// relative difference measures rounding, not the solver.
var differenceFields = map[string]bool{"Wait": true}

func closeValue(a, b reflect.Value) bool {
	switch {
	case a.Type() == solveStatsType:
		return true
	case a.Kind() == reflect.Float64:
		return numeric.Close(a.Float(), b.Float(), refTol)
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if differenceFields[a.Type().Field(i).Name] {
				continue
			}
			if !closeValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !closeValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkSolveMatches fails t unless a solve and its reference agree:
// both fail, or both succeed with every result field within refTol.
// Failure texts may differ: where the reference spent its budget, the
// bracketed kernel names the guard that ended the search.
func checkSolveMatches(t *testing.T, what string, got any, err error, want any, refErr error) {
	t.Helper()
	switch {
	case (err != nil) != (refErr != nil):
		t.Errorf("%s: error %v, reference error %v", what, err, refErr)
	case err == nil && !closeFields(got, want):
		t.Errorf("%s: result %+v, reference %+v", what, got, want)
	}
}

// TestSolversMatchReference runs whole solves, feasible and failing,
// through the production solvers and the references.
func TestSolversMatchReference(t *testing.T) {
	r := rng.New(5)
	// Failing solves run the full iteration budget (about 5ms each, and
	// half the random lock-free draws fail), so the solve counts stay
	// small; the step tests above carry the volume.
	trials, lockFreeTrials := 200, 60
	if testing.Short() {
		trials, lockFreeTrials = 50, 20
	}
	for i := 0; i < trials; i++ {
		p := Params{
			P:                 2 + int(r.Uint64()%1023),
			W:                 logUniform(r, 1e-3, 1e5),
			St:                logUniform(r, 1e-3, 1e3),
			So:                logUniform(r, 1e-3, 1e3),
			C2:                4 * r.Float64(),
			ProtocolProcessor: i%3 == 0,
			Priority:          PriorityApprox(i % 2),
		}
		got, err := AllToAll(p)
		want, refErr := allToAllRef(p)
		checkSolveMatches(t, fmt.Sprintf("AllToAll(%+v)", p), got, err, want, refErr)
	}
	for i := 0; i < trials; i++ {
		np := 2 + int(r.Uint64()%255)
		p := ClientServerParams{
			P:  np,
			Ps: 1 + int(r.Uint64()%uint64(np-1)),
			W:  logUniform(r, 1e-3, 1e4),
			St: logUniform(r, 1e-3, 1e3),
			So: logUniform(r, 1e-3, 1e3),
			C2: 4 * r.Float64(),
		}
		got, err := ClientServer(p)
		want, refErr := clientServerRef(p)
		checkSolveMatches(t, fmt.Sprintf("ClientServer(%+v)", p), got, err, want, refErr)
	}
	for i := 0; i < trials; i++ {
		p := LockParams{
			Threads: 1 + int(r.Uint64()%256),
			W:       logUniform(r, 1e-3, 1e4),
			St:      logUniform(r, 1e-3, 1e3),
			So:      logUniform(r, 1e-3, 1e3),
			C2:      4 * r.Float64(),
		}
		got, err := Lock(p)
		want, refErr := lockRef(p)
		checkSolveMatches(t, fmt.Sprintf("Lock(%+v)", p), got, err, want, refErr)
	}
	failures, missed := 0, 0
	for i := 0; i < lockFreeTrials; i++ {
		p := LockFreeParams{
			Threads: 1 + int(r.Uint64()%256),
			W:       logUniform(r, 1e-3, 1e4),
			St:      logUniform(r, 1e-3, 1e3),
			So:      logUniform(r, 1e-3, 1e3),
			C2:      4 * r.Float64(),
		}
		got, err := LockFree(p)
		want, refErr := lockFreeRef(p)
		what := fmt.Sprintf("LockFree(%+v)", p)
		switch {
		case refErr != nil && err == nil && lockFreeRootAt(p, got.R):
			// The damped iteration crossed the retry-storm guard on its
			// way to a fixed point the model has; the bracket found it.
			missed++
			continue
		case err != nil && refErr == nil:
			t.Errorf("%s: error %v, reference converged", what, err)
		case err != nil:
			failures++
			if got.Solve.Iters > 200 {
				t.Errorf("%s: failed after %d iterations, want at most 200", what, got.Solve.Iters)
			}
		}
		checkSolveMatches(t, what, got, err, want, refErr)
	}
	t.Logf("lock-free: %d failures, %d fixed points the damped reference missed", failures, missed)
	// The failures that occur are inputs with no fixed point (the
	// bracket closes on a guard); their text is the guard's, checked on
	// the steps.
	if failures == 0 {
		t.Error("no lock-free solve failed; the error path went unchecked")
	}
}

// TestMultithreadedMatchesReference: the multithreaded model, now
// solved on the cycle time by the bracketed kernel, agrees with the
// damped throughput iteration it replaced, failing where it failed.
func TestMultithreadedMatchesReference(t *testing.T) {
	r := rng.New(8)
	trials, missed := 200, 0
	if testing.Short() {
		trials = 50
	}
	for i := 0; i < trials; i++ {
		p := Params{
			P:  2 + int(r.Uint64()%1023),
			W:  logUniform(r, 1e-3, 1e5),
			St: logUniform(r, 1e-3, 1e3),
			So: logUniform(r, 1e-3, 1e3),
			C2: 4 * r.Float64(),
		}
		threads := 1 + int(r.Uint64()%16)
		got, err := Multithreaded(p, threads)
		want, refErr := multithreadedRef(p, threads)
		what := fmt.Sprintf("Multithreaded(%+v, %d)", p, threads)
		if err == nil && refErr != nil && strings.Contains(refErr.Error(), "did not converge") {
			// The damped throughput iteration oscillates where F is
			// steep; the solve must then be a fixed point of the model:
			// exact MVA at the returned handler load reproduces XNode.
			missed++
			centers := []mva.Center{
				{Kind: mva.Queueing, Demand: p.W / (1 - got.HandlerUtil)},
				{Kind: mva.Delay, Demand: 2*p.St + 2*got.Rh},
			}
			m, err := mva.Exact(centers, threads)
			if err != nil || !numeric.Close(m.X, got.XNode, 1e-9) {
				t.Errorf("%s: XNode %v, exact MVA at its load %v (%v)", what, got.XNode, m.X, err)
			}
			continue
		}
		checkSolveMatches(t, what, got, err, want, refErr)
	}
	t.Logf("%d fixed points the damped reference missed", missed)
}

// lockFreeRootAt reports whether the lock-free map has a root of
// g(R) = F(R) − R within 1e-9 relative of r: g is feasible and changes
// sign across that interval.
func lockFreeRootAt(p LockFreeParams, r float64) bool {
	n := float64(p.Threads)
	lo, hi := r*(1-1e-9), r*(1+1e-9)
	itLo, gLo := lockFreeStep(p, n, lo)
	itHi, gHi := lockFreeStep(p, n, hi)
	return gLo == guardNone && gHi == guardNone && itLo.rNext > lo && itHi.rNext < hi
}

// betaProbes are the C² values the β memo is checked at: the
// boundaries (both zeros, subnormals, 1), the paper's range and large
// values; plus enough distinct values to collide in every slot of the
// table. NaN, which has no β, is a panic probe.
func betaProbes() []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072e-308, math.SmallestNonzeroFloat64 * 3,
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), 0.5, 2, 4, 16, 100, 1e4, 1e6, 1e9, 1e12,
	}
	r := rng.New(6)
	for i := 0; i < 4<<betaMemoBits; i++ {
		probes = append(probes, logUniform(r, 1e-6, 1e3))
	}
	return probes
}

// TestUpperBoundBetaMemoMatchesBisection: β, now found by the scalar
// kernel, agrees with the reference bisection (which stops within 1e-10
// of it) to 1e-10 relative; and the memo answers bit for bit what the
// unmemoized solve does, on a miss and on every later hit, with
// concurrent callers sharing the table.
func TestUpperBoundBetaMemoMatchesBisection(t *testing.T) {
	probes := betaProbes()
	want := make([]float64, len(probes))
	for i, c2 := range probes {
		want[i] = upperBoundBeta(c2)
		if ref := upperBoundBetaRef(c2); math.Abs(want[i]-ref) > 1e-10*ref {
			t.Errorf("upperBoundBeta(%v) = %v, reference bisection %v", c2, want[i], ref)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range probes {
					// Each worker walks the probes from its own offset,
					// so workers fill and evict slots in different orders.
					i := (k*(2*w+1) + w) % len(probes)
					if got := UpperBoundBeta(probes[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
						errs[w] = append(errs[w], fmt.Sprintf("UpperBoundBeta(%v) = %v, reference %v", probes[i], got, want[i]))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		for _, msg := range e {
			t.Error(msg)
		}
	}
}

// TestUpperBoundBetaPanicsNotMemoized: C² values with no β panic on
// every call, never answering from the table. A huge finite C² is not
// one of them: its β lies far past 2·10⁶, and keeps R within the
// Eq. 5.12 bound.
func TestUpperBoundBetaPanicsNotMemoized(t *testing.T) {
	for _, c2 := range []float64{-1, math.NaN(), math.Inf(1)} {
		for call := 0; call < 2; call++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("UpperBoundBeta(%v) call %d did not panic", c2, call)
					}
				}()
				UpperBoundBeta(c2)
			}()
		}
	}
	p := Params{P: 32, W: 512, St: 40, So: 200, C2: 1e300}
	res, err := AllToAll(p)
	if err != nil {
		t.Fatalf("AllToAll(%+v): %v", p, err)
	}
	if beta := UpperBoundBeta(p.C2); math.IsInf(beta, 0) || math.IsNaN(beta) {
		t.Errorf("UpperBoundBeta(1e300) = %v, want finite", beta)
	}
	// β lands within an ulp or so of the fixed point, so the bound holds
	// to FuzzAllToAll's relative tolerance.
	if res.R > res.UpperBound*(1+1e-9) {
		t.Errorf("C²=1e300: R %v above upper bound %v", res.R, res.UpperBound)
	}
}

// TestUpperBoundBetaHitAllocs: answering from the memo allocates
// nothing.
func TestUpperBoundBetaHitAllocs(t *testing.T) {
	UpperBoundBeta(0.25)
	if got := testing.AllocsPerRun(100, func() { UpperBoundBeta(0.25) }); got != 0 {
		t.Errorf("UpperBoundBeta hit allocates %v times, want 0", got)
	}
}
