package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestWorkloadsSmoke runs every workload for a single window, untraced
// and traced, with every check on: no op may fail, every metric must
// be finite, and the traced run must show each workload loading or
// bypassing its layers as designed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, _, err := execute(wl, 7, 0, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res)
			for _, def := range endToEnd {
				if v := res.metrics[def.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", def.name, v)
				}
			}

			res, tr, err := execute(wl, 7, 0, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res)
			if tr.chrome.Len() == 0 {
				t.Error("traced run recorded no spans")
			}
			m := res.metrics
			switch wl.name {
			case "serve-hot":
				if math.Abs(m["serve.cache_hit_ratio"]-1) > 1e-12 || m["calib.samples"] > 0 {
					t.Errorf("serve-hot: hit ratio %v, calib samples %v; want 1 and 0", m["serve.cache_hit_ratio"], m["calib.samples"])
				}
			case "serve-cold":
				if m["serve.cache_hit_ratio"] > 0.01 || m["calib.samples"] <= 0 || m["core.solve_us.alltoall"] <= 0 || m["fit.iters"] <= 0 {
					t.Errorf("serve-cold: hit ratio %v, calib samples %v, alltoall solve %vus, fit iters %v",
						m["serve.cache_hit_ratio"], m["calib.samples"], m["core.solve_us.alltoall"], m["fit.iters"])
				}
			case "sim-sweep":
				if m["machine.msgs"] <= 0 || m["workload.run_ms.workpile"] <= 0 || m["runner.busy_ratio"] <= 0 {
					t.Errorf("sim-sweep: msgs %v, workpile run %vms, busy %v", m["machine.msgs"], m["workload.run_ms.workpile"], m["runner.busy_ratio"])
				}
			case "sim-par":
				seq, cons, opt := int64(m["psim.events.seq"]), int64(m["psim.events.cons"]), int64(m["psim.events.opt"])
				if seq <= 0 || seq != cons || seq != opt {
					t.Errorf("psim events seq %d cons %d opt %d, want equal and > 0", seq, cons, opt)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result) {
	t.Helper()
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.json()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || len(line.Metrics) != len(res.units) {
		t.Fatalf("result line %s", res.json())
	}
}

// corrupting flips one byte of every /v1/lock response body.
type corrupting struct {
	h       http.Handler
	flipped int
}

func (c *corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &respRecorder{header: http.Header{}}
	c.h.ServeHTTP(rec, r)
	body := rec.body.Bytes()
	if strings.HasSuffix(r.URL.Path, "/lock") && len(body) > 0 {
		body[len(body)-2] ^= 1
		c.flipped++
	}
	for k, v := range rec.header {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.status())
	if _, err := w.Write(body); err != nil {
		panic(err)
	}
}

// TestCorruptedBodyCounted shows the serve-hot check counts every hit
// whose body is not byte-identical to its key's first answer.
func TestCorruptedBodyCounted(t *testing.T) {
	inst, err := setupServeHot(3)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInst)
	c := &corrupting{h: s.handler}
	s.handler = c
	m := newMeter(clock.System, false, 0.99)
	if err := s.window(m, nil); err != nil {
		t.Fatal(err)
	}
	if c.flipped == 0 || m.failed != c.flipped {
		t.Fatalf("corrupted %d bodies, check counted %d failed of %d", c.flipped, m.failed, m.ops)
	}
}

// TestDisagreeingCoreCounted shows the serve-cold check counts every
// request whose body differs from the direct solve, down to the last
// bit of one field.
func TestDisagreeingCoreCounted(t *testing.T) {
	inst, err := setupServeCold(3)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInst)
	s.oracle.allToAll = func(p core.Params, o obs.SolveObserver) (core.AllToAllResult, error) {
		r, err := core.AllToAllObserved(p, o)
		r.R = math.Nextafter(r.R, math.Inf(1))
		return r, err
	}
	m := newMeter(clock.System, false, 0.99)
	if err := s.window(m, nil); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range s.calls {
		if c.route == "alltoall" || c.route == "sweep" {
			want++
		}
	}
	if want == 0 || m.failed != want {
		t.Fatalf("%d requests use the all-to-all solver, check counted %d failed of %d", want, m.failed, m.ops)
	}
}

// TestColdGeneratorFeasible solves a long cold stream directly: every
// generated request must have a solution, or the benchmark would count
// the model's own refusals as failed ops.
func TestColdGeneratorFeasible(t *testing.T) {
	g := &gen{r: rng.New(99)}
	o := newOracle()
	for i := 0; i < 3000; i++ {
		c := g.scalar(hotRoutes[i%len(hotRoutes)])
		if i%100 == 0 {
			c = g.fit()
		}
		if _, err := c.want(o); err != nil {
			t.Fatalf("%s %s: %v", c.route, c.body, err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), workloadList(); strings.ReplaceAll(want, " ", "") != got {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w bytes.Buffer
		for _, d := range got {
			g.WriteString(d.Name + " " + d.Unit + "\n")
		}
		for _, d := range want {
			w.WriteString(d.name + " " + d.unit + "\n")
		}
		if g.String() != w.String() {
			t.Errorf("%s differ:\nBENCHMARK.json:\n%s\nprogram:\n%s", what, g.String(), w.String())
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestCovered(t *testing.T) {
	ms := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	cases := []struct {
		iv     [][2]time.Duration
		lo, hi time.Duration
		want   time.Duration
	}{
		{nil, 0, 10, 0},
		{[][2]time.Duration{ms(1, 3), ms(2, 5)}, 0, 10, 4},
		{[][2]time.Duration{ms(6, 8), ms(1, 2)}, 0, 10, 3},
		{[][2]time.Duration{ms(0, 20)}, 5, 10, 5},
	}
	for _, c := range cases {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %v, %v) = %v, want %v", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

// TestLockFreeNoConflictsFails shows a lock-free point whose simulation
// saw no conflicts fails its check when the model predicts some.
func TestLockFreeNoConflictsFails(t *testing.T) {
	p, err := lockFreePoint(8)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.LockFree(core.LockFreeParams{Threads: 8, W: 400, St: 5, So: 60, C2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(simOut{value: model.X, conflict: model.Conflict}); err != nil {
		t.Fatalf("model's own answer fails: %v", err)
	}
	if err := p.check(simOut{value: model.X}); err == nil {
		t.Fatalf("no simulated conflicts against model conflict %v passed", model.Conflict)
	}
}

// TestLatHist checks pooled quantiles against exact ones within the
// bucket width.
func TestLatHist(t *testing.T) {
	h := newLatHist()
	var xs []float64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		h.add(d)
		xs = append(xs, float64(d)/float64(time.Millisecond))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("quantile(%v) = %v, want %v within 0.5%%", q, got, want)
		}
	}
	if got := (&latHist{counts: make([]uint64, histBuckets)}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
