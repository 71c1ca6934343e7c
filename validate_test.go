package repro_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestModelRejectsNonFiniteParams is the facade's entry-point table:
// every exported function of api.go that returns an error gets a row
// (TestEntryPointTableCoversAPI enforces that), and each float input
// of each row, in turn, is set to NaN, +Inf, -Inf and -1. Every such
// call must return an error, promptly and without a panic: a NaN never
// meets a convergence tolerance, so a solver that took one would spin
// to its iteration cap and return garbage, and a simulator would
// schedule events at NaN times.
//
// Float inputs are the float64 scalars, struct fields and slice
// elements of the arguments. A Distribution field is a float input
// too: the table rebuilds it as Deterministic(v) and Exponential(v),
// and those constructors may refuse v themselves by panicking (they
// return no error). Pointers (a config's *SimPar) are not followed.
func TestModelRejectsNonFiniteParams(t *testing.T) {
	for _, e := range entryPoints() {
		t.Run(e.name, func(t *testing.T) {
			if err := e.call(e.good()); err != nil {
				t.Fatalf("valid arguments rejected: %v", err)
			}
			_, inputs := floatInputs(e.good())
			n := len(inputs)
			if n == 0 {
				t.Fatal("no float input found; list the function in noFloatInput instead")
			}
			for k := 0; k < n; k++ {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
					args, inputs := floatInputs(e.good())
					in := inputs[k]
					if refusedAtConstruction(func() { in.set(bad) }) {
						continue
					}
					switch fault, err := callBounded(func() error { return e.call(args.Interface()) }); {
					case fault != "":
						t.Errorf("%s = %v: %s", in.path, bad, fault)
					case err == nil:
						t.Errorf("%s = %v accepted", in.path, bad)
					}
				}
			}
		})
	}
	// Zero is a bad handler cost but not a bad float: it stays a row of
	// its own.
	if _, err := repro.AllToAll(repro.Params{P: 32, W: 1000, St: 40, So: 0}); err == nil {
		t.Error("AllToAll accepted So = 0")
	}
}

// noFloatInput lists the exported error-returning functions of api.go
// that take no float input, so the table has no row for them.
var noFloatInput = map[string]bool{
	"RunParallel":    true, // a task count, options and the task itself
	"RunParallelCtx": true,
}

// TestEntryPointTableCoversAPI parses api.go and fails when an
// exported function returning an error has neither a row in
// entryPoints nor a place in noFloatInput, or when either names a
// function api.go no longer declares.
func TestEntryPointTableCoversAPI(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil {
			continue
		}
		res := fd.Type.Results.List
		if id, ok := res[len(res)-1].Type.(*ast.Ident); ok && id.Name == "error" {
			declared[fd.Name.Name] = true
		}
	}
	covered := map[string]bool{}
	for name := range noFloatInput {
		covered[name] = true
	}
	for _, e := range entryPoints() {
		if covered[e.name] {
			t.Errorf("%s is listed twice", e.name)
		}
		covered[e.name] = true
	}
	for name := range declared {
		if !covered[name] {
			t.Errorf("api.go's %s returns an error but has no row in entryPoints and is not in noFloatInput", name)
		}
	}
	for name := range covered {
		if !declared[name] {
			t.Errorf("%s is covered but api.go declares no such error-returning function", name)
		}
	}
}

// entryPoint is one row of the table: good builds fresh valid
// arguments (a struct whose float fields are the function's float
// inputs) and call applies the function to them.
type entryPoint struct {
	name string
	good func() any
	call func(args any) error
}

func row[A any](name string, good func() A, call func(A) error) entryPoint {
	return entryPoint{name, func() any { return good() }, func(a any) error { return call(a.(A)) }}
}

// Argument structs of the functions that take more than one value.
type (
	runtimeArgs struct {
		P repro.Params
		N int
	}
	threadArgs struct {
		P repro.Params
		T int
	}
	matVecArgs struct {
		N, P    int
		TMulAdd float64
	}
	fitArgs struct {
		Obs []repro.FitObservation
		P   int
		C2  float64
	}
	fitLockArgs struct {
		Obs    []repro.FitLockObservation
		So, C2 float64
	}
)

func entryPoints() []entryPoint {
	params := func() repro.Params { return repro.Params{P: 8, W: 1000, St: 40, So: 200, C2: 1} }
	cs := func() repro.ClientServerParams {
		return repro.ClientServerParams{P: 16, Ps: 2, W: 1000, St: 40, So: 200, C2: 1}
	}
	at := func() repro.SimAllToAllConfig {
		return repro.SimAllToAllConfig{P: 4, Work: repro.Exponential(100), Latency: repro.Deterministic(10),
			Service: repro.Deterministic(20), MeasureCycles: 5, Seed: 1}
	}
	wp := func() repro.SimWorkpileConfig {
		return repro.SimWorkpileConfig{P: 4, Ps: 1, Chunk: repro.Exponential(100), Latency: repro.Deterministic(10),
			Service: repro.Deterministic(20), MeasureTime: 2000, Seed: 1}
	}
	coll := func() repro.CollectiveConfig {
		return repro.CollectiveConfig{P: 4, Latency: repro.Deterministic(10), Handler: repro.Deterministic(20),
			SendOverhead: 5, Seed: 1}
	}
	fitObs := func() fitArgs {
		obs := make([]repro.FitObservation, 0, 3)
		for _, w := range []float64{0, 512, 2048} {
			p := params()
			p.P, p.W, p.C2 = 32, w, 0
			res, err := repro.AllToAll(p)
			if err != nil {
				panic(err)
			}
			obs = append(obs, repro.FitObservation{W: w, R: res.R, Rq: res.Rq})
		}
		return fitArgs{Obs: obs, P: 32, C2: 0}
	}
	fitLockObs := func(model func(repro.LockParams) (float64, error)) func() fitLockArgs {
		return func() fitLockArgs {
			obs := make([]repro.FitLockObservation, 0, 4)
			for threads := 1; threads <= 4; threads++ {
				x, err := model(repro.LockParams{Threads: threads, W: 1000, St: 20, So: 100})
				if err != nil {
					panic(err)
				}
				obs = append(obs, repro.FitLockObservation{Threads: threads, X: x})
			}
			return fitLockArgs{Obs: obs, So: 100, C2: 0}
		}
	}
	lockX := func(p repro.LockParams) (float64, error) {
		r, err := repro.Lock(p)
		return r.X, err
	}
	lockFreeX := func(p repro.LockParams) (float64, error) {
		r, err := repro.LockFree(repro.LockFreeParams{Threads: p.Threads, W: p.W, St: p.St, So: p.So, C2: p.C2})
		return r.X, err
	}
	ignore := func(_ any, err error) error { return err }
	return []entryPoint{
		row("AllToAll", params, func(p repro.Params) error { return ignore(repro.AllToAll(p)) }),
		row("TotalRuntime", func() runtimeArgs { return runtimeArgs{params(), 10} },
			func(a runtimeArgs) error { return ignore(repro.TotalRuntime(a.P, a.N)) }),
		row("ClientServer", cs, func(p repro.ClientServerParams) error { return ignore(repro.ClientServer(p)) }),
		row("OptimalServersInt", cs, func(p repro.ClientServerParams) error { return ignore(repro.OptimalServersInt(p)) }),
		row("General", func() repro.GeneralParams {
			return repro.GeneralParams{P: 4, W: []float64{1000, 800, 1200, 1000}, V: repro.HomogeneousVisits(4),
				St: 40, So: []float64{200}, C2: 1}
		}, func(p repro.GeneralParams) error { return ignore(repro.General(p)) }),
		row("MatVec", func() matVecArgs { return matVecArgs{64, 8, 4} }, func(a matVecArgs) error {
			_, _, err := repro.MatVec(a.N, a.P, a.TMulAdd)
			return err
		}),
		row("NonBlocking", params, func(p repro.Params) error { return ignore(repro.NonBlocking(p)) }),
		row("Multithreaded", func() threadArgs { return threadArgs{params(), 4} },
			func(a threadArgs) error { return ignore(repro.Multithreaded(a.P, a.T)) }),
		row("Lock", func() repro.LockParams { return repro.LockParams{Threads: 4, W: 1000, St: 40, So: 200, C2: 1} },
			func(p repro.LockParams) error { return ignore(repro.Lock(p)) }),
		row("LockFree", func() repro.LockFreeParams {
			return repro.LockFreeParams{Threads: 4, W: 1000, St: 10, So: 100, C2: 1}
		}, func(p repro.LockFreeParams) error { return ignore(repro.LockFree(p)) }),
		row("SimulateAllToAll", at, func(c repro.SimAllToAllConfig) error { return ignore(repro.SimulateAllToAll(c)) }),
		row("SimulateWorkpile", wp, func(c repro.SimWorkpileConfig) error { return ignore(repro.SimulateWorkpile(c)) }),
		row("SimulateMultiHop", func() repro.SimMultiHopConfig {
			return repro.SimMultiHopConfig{P: 4, Hops: 2, Work: repro.Exponential(100), Latency: repro.Deterministic(10),
				Service: repro.Deterministic(20), MeasureCycles: 5, Seed: 1}
		}, func(c repro.SimMultiHopConfig) error { return ignore(repro.SimulateMultiHop(c)) }),
		row("SimulateNonBlocking", func() repro.SimNonBlockingConfig {
			return repro.SimNonBlockingConfig{P: 4, Work: repro.Exponential(100), Latency: repro.Deterministic(10),
				Service: repro.Deterministic(20), MeasureCycles: 5, Seed: 1}
		}, func(c repro.SimNonBlockingConfig) error { return ignore(repro.SimulateNonBlocking(c)) }),
		row("SimulateExchange", func() repro.SimExchangeConfig {
			return repro.SimExchangeConfig{P: 4, Rounds: 2, SendOverhead: 5, Latency: repro.Deterministic(10),
				Handler: repro.Deterministic(20), Seed: 1}
		}, func(c repro.SimExchangeConfig) error { return ignore(repro.SimulateExchange(c)) }),
		row("SimulateMultithread", func() repro.SimMultithreadConfig {
			return repro.SimMultithreadConfig{P: 4, T: 2, Work: repro.Exponential(100), Latency: repro.Deterministic(10),
				Service: repro.Deterministic(20), MeasureCycles: 5, Seed: 1}
		}, func(c repro.SimMultithreadConfig) error { return ignore(repro.SimulateMultithread(c)) }),
		row("SimulateLock", func() repro.SimLockConfig {
			return repro.SimLockConfig{Threads: 4, Work: repro.Exponential(100), Handoff: repro.Deterministic(10),
				Critical: repro.Deterministic(20), MeasureTime: 2000, Seed: 1}
		}, func(c repro.SimLockConfig) error { return ignore(repro.SimulateLock(c)) }),
		row("SimulateLockFree", func() repro.SimLockFreeConfig {
			return repro.SimLockFreeConfig{Threads: 4, Work: repro.Exponential(100), Round: repro.Deterministic(20),
				Serial: repro.Deterministic(5), MeasureTime: 2000, Seed: 1}
		}, func(c repro.SimLockFreeConfig) error { return ignore(repro.SimulateLockFree(c)) }),
		row("BroadcastCollective", coll, func(c repro.CollectiveConfig) error { return ignore(repro.BroadcastCollective(c)) }),
		// The values are the data being summed, not parameters: any
		// float is a legal summand, so only the config is perturbed.
		row("ReduceCollective", coll, func(c repro.CollectiveConfig) error {
			return ignore(repro.ReduceCollective(c, []float64{1, 2, 3, 4}))
		}),
		row("BarrierCollective", coll, func(c repro.CollectiveConfig) error { return ignore(repro.BarrierCollective(c, 2)) }),
		row("FitAllToAll", fitObs, func(a fitArgs) error { return ignore(repro.FitAllToAll(a.Obs, a.P, a.C2)) }),
		row("FitLock", fitLockObs(lockX), func(a fitLockArgs) error { return ignore(repro.FitLock(a.Obs, a.So, a.C2)) }),
		row("FitLockFree", fitLockObs(lockFreeX), func(a fitLockArgs) error {
			return ignore(repro.FitLockFree(a.Obs, a.So, a.C2))
		}),
		row("SimulateAllToAllN", at, func(c repro.SimAllToAllConfig) error { return ignore(repro.SimulateAllToAllN(c, 2, 2)) }),
		row("SimulateWorkpileN", wp, func(c repro.SimWorkpileConfig) error { return ignore(repro.SimulateWorkpileN(c, 2, 2)) }),
		row("SweepParallel", func() []repro.SimAllToAllConfig { return []repro.SimAllToAllConfig{at(), at()} },
			func(c []repro.SimAllToAllConfig) error { return ignore(repro.SweepParallel(c, 2)) }),
		row("SweepParallelCtx", func() []repro.SimAllToAllConfig { return []repro.SimAllToAllConfig{at(), at()} },
			func(c []repro.SimAllToAllConfig) error {
				return ignore(repro.SweepParallelCtx(context.Background(), c, 2))
			}),
	}
}

// floatInput is one float input of an argument value: set overwrites
// it in place.
type floatInput struct {
	path string
	set  func(v float64)
}

var distType = reflect.TypeOf((*repro.Distribution)(nil)).Elem()

// floatInputs copies args into an addressable value and lists the
// copy's float inputs in a fixed order, so the k-th input of two
// values built by the same good function is the same field.
func floatInputs(args any) (reflect.Value, []floatInput) {
	v := reflect.New(reflect.TypeOf(args)).Elem()
	v.Set(reflect.ValueOf(args))
	var out []floatInput
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch {
		case v.Type() == distType && !v.IsNil():
			for _, c := range []struct {
				name  string
				build func(float64) repro.Distribution
			}{{"Deterministic", repro.Deterministic}, {"Exponential", repro.Exponential}} {
				out = append(out, floatInput{path + "=" + c.name, func(x float64) { v.Set(reflect.ValueOf(c.build(x))) }})
			}
		case v.Kind() == reflect.Float64:
			out = append(out, floatInput{path, v.SetFloat})
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					walk(v.Field(i), strings.TrimPrefix(path+"."+f.Name, "."))
				}
			}
		case v.Kind() == reflect.Slice || v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(v, "")
	return v, out
}

// refusedAtConstruction reports whether build panicked: a Distribution
// constructor refusing its argument.
func refusedAtConstruction(build func()) (refused bool) {
	defer func() { refused = recover() != nil }()
	build()
	return false
}

// callBounded runs call and returns its error, or a fault: the value
// it panicked with, or that it was still running after 20 seconds.
func callBounded(call func() error) (fault string, err error) {
	type outcome struct {
		err   error
		fault string
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{fault: fmt.Sprintf("panic: %v", r)}
			}
		}()
		done <- outcome{err: call()}
	}()
	select {
	case o := <-done:
		return o.fault, o.err
	case <-time.After(20 * time.Second):
		return "no return within 20s", nil
	}
}

func TestMatVecRejectsBadCost(t *testing.T) {
	for _, cost := range []float64{math.NaN(), math.Inf(1), 0, -4} {
		if _, _, err := repro.MatVec(64, 8, cost); err == nil {
			t.Errorf("MatVec accepted tMulAdd = %v", cost)
		}
	}
	if _, _, err := repro.MatVec(64, 8, 4); err != nil {
		t.Errorf("MatVec rejected a valid cost: %v", err)
	}
}

func TestFitRejectsBadC2(t *testing.T) {
	obs := []repro.FitObservation{{W: 0, R: 1200}, {W: 512, R: 1750}, {W: 2048, R: 3300}}
	for _, c2 := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := repro.FitAllToAll(obs, 32, c2); err == nil {
			t.Errorf("FitAllToAll accepted C² = %v", c2)
		}
	}
}

// TestSimulateNRejectsBadConfig: the replicated simulation entry points
// must reject a bad config before starting any replication worker.
func TestSimulateNRejectsBadConfig(t *testing.T) {
	atGood := repro.SimAllToAllConfig{
		P:             4,
		Work:          repro.Deterministic(100),
		Latency:       repro.Deterministic(10),
		Service:       repro.Deterministic(20),
		MeasureCycles: 5,
		Seed:          1,
	}
	if _, err := repro.SimulateAllToAllN(atGood, 2, 2); err != nil {
		t.Fatalf("baseline all-to-all config rejected: %v", err)
	}
	atBad := []struct {
		name   string
		mutate func(*repro.SimAllToAllConfig)
	}{
		{"NaN LinkOccupancy", func(c *repro.SimAllToAllConfig) { c.LinkOccupancy = math.NaN() }},
		{"+Inf LinkOccupancy", func(c *repro.SimAllToAllConfig) { c.LinkOccupancy = math.Inf(1) }},
		{"negative LinkOccupancy", func(c *repro.SimAllToAllConfig) { c.LinkOccupancy = -1 }},
		{"NaN RetryDelay", func(c *repro.SimAllToAllConfig) { c.RetryDelay = math.NaN() }},
		{"negative RetryDelay", func(c *repro.SimAllToAllConfig) { c.RetryDelay = -5 }},
		{"nil Work", func(c *repro.SimAllToAllConfig) { c.Work = nil }},
	}
	for _, tc := range atBad {
		c := atGood
		tc.mutate(&c)
		_, err := repro.SimulateAllToAllN(c, 2, 2)
		if err == nil {
			t.Errorf("SimulateAllToAllN accepted %s", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "workload:") {
			t.Errorf("SimulateAllToAllN(%s) failed late (%v), want config validation", tc.name, err)
		}
	}

	wpGood := repro.SimWorkpileConfig{
		P: 4, Ps: 1,
		Chunk:       repro.Exponential(100),
		Latency:     repro.Deterministic(10),
		Service:     repro.Deterministic(20),
		MeasureTime: 2000,
		Seed:        1,
	}
	if _, err := repro.SimulateWorkpileN(wpGood, 2, 2); err != nil {
		t.Fatalf("baseline work-pile config rejected: %v", err)
	}
	wpBad := []struct {
		name   string
		mutate func(*repro.SimWorkpileConfig)
	}{
		{"NaN MeasureTime", func(c *repro.SimWorkpileConfig) { c.MeasureTime = math.NaN() }},
		{"+Inf MeasureTime", func(c *repro.SimWorkpileConfig) { c.MeasureTime = math.Inf(1) }},
		{"zero MeasureTime", func(c *repro.SimWorkpileConfig) { c.MeasureTime = 0 }},
		{"NaN WarmupTime", func(c *repro.SimWorkpileConfig) { c.WarmupTime = math.NaN() }},
		{"negative WarmupTime", func(c *repro.SimWorkpileConfig) { c.WarmupTime = -1 }},
	}
	for _, tc := range wpBad {
		c := wpGood
		tc.mutate(&c)
		_, err := repro.SimulateWorkpileN(c, 2, 2)
		if err == nil {
			t.Errorf("SimulateWorkpileN accepted %s", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "workload:") {
			t.Errorf("SimulateWorkpileN(%s) failed late (%v), want config validation", tc.name, err)
		}
	}
}
