// Package obs is the repository's shared telemetry layer: a concurrent
// metrics registry (counters, gauges, histograms with configurable
// buckets) with deterministic Prometheus text exposition, plus the
// solver-observability seam (SolveObserver, ConvRecorder) that the AMVA
// fixed-point solvers in internal/core and internal/mva report
// convergence behaviour through.
//
// The package is dependency-free (standard library plus internal/clock)
// and deterministic by construction: nothing here reads a wall clock —
// every recorded time comes through an injected clock.Clock — and every
// rendered document (Prometheus exposition, convergence-trace JSON/CSV)
// orders its content by sorted names, so identical inputs produce
// byte-identical output. Instrument updates are a single atomic
// operation on the hot path; registration is mutex-guarded and meant to
// happen once, at setup.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an optional set of constant key/value labels attached to an
// instrument at registration. Each distinct (name, labels) pair is its
// own series; exposition renders labels sorted by key.
type Labels map[string]string

// kind classifies a metric family.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing count. The zero value is ready
// to use, but instruments normally come from a Registry so they appear
// in the exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative: counters only go up.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer-valued level (queue depth, in-flight requests).
// All methods are a single atomic operation.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative allowed) and returns the new
// value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets: bucket i holds
// values v with bounds[i-1] < v ≤ bounds[i], plus an implicit +Inf
// overflow bucket, matching the Prometheus cumulative-`le` convention.
// Observation is lock-free: one atomic add for the bucket plus CAS
// updates for the running sum and max. NaN observations are dropped —
// they would poison the sum and match no bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	maxBits atomic.Uint64 // float64 bits of the largest observation
	tap     atomic.Pointer[func(float64)]
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bucket with v <= bound; len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	if t := h.tap.Load(); t != nil {
		(*t)(v)
	}
}

// SetTap installs fn as the histogram's sample tap: every subsequent
// Observe forwards its raw value to fn after recording it, giving
// consumers (the online calibration estimator) the per-sample stream
// the cumulative buckets discard. fn runs synchronously on the
// observing goroutine and must be safe for concurrent use; SetTap(nil)
// removes the tap. At most one tap is active per histogram — a second
// SetTap replaces the first.
func (h *Histogram) SetTap(fn func(v float64)) {
	if fn == nil {
		h.tap.Store(nil)
		return
	}
	h.tap.Store(&fn)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative) with the overflow bucket last,
// so len(Counts) == len(Bounds)+1.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	Max    float64
}

// Snapshot copies the histogram's current state. Concurrent observers
// may land between field reads; each field is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile of everything observed so far; it
// is shorthand for h.Snapshot().Quantile(q). Callers reading several
// quantiles should take one Snapshot and query that, so all estimates
// describe the same point in time.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Mean returns the arithmetic mean of the observations in the
// snapshot, exact (not bucket-estimated) because the histogram tracks
// the running sum. An empty snapshot returns 0.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation inside the containing bucket, the same
// estimate Prometheus's histogram_quantile computes. The first bucket
// interpolates from max(0, lower bound); a quantile landing in the
// overflow bucket returns the tracked maximum. An empty histogram
// returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			return s.Max
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if lo < 0 {
			lo = math.Min(0, s.Bounds[i])
		}
		return lo + (s.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return s.Max
}

// ExpBuckets returns n exponentially growing bucket bounds: start,
// start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if !(start > 0) || !(factor > 1) || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d) needs start > 0, factor > 1, n >= 1", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// series is one registered instrument with its label signature.
type series struct {
	signature string // canonical `k="v",…` form, "" for unlabeled
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series
}

// Registry holds named instruments and renders them as Prometheus text
// exposition. Registration methods are idempotent: asking for an
// already-registered (name, labels) pair returns the existing
// instrument, so callers can register lazily from request paths.
// Registering the same name with a different metric kind panics — that
// is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns (registering on first use) the counter for the given
// name and labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, counterKind, labels, nil, nil).counter
}

// Gauge returns (registering on first use) the gauge for the given name
// and labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, gaugeKind, labels, nil, nil).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for levels owned elsewhere (cache size, drain
// state). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, gaugeFuncKind, labels, nil, fn)
}

// Histogram returns (registering on first use) the histogram for the
// given name and labels. bounds are inclusive upper bounds, strictly
// increasing; an overflow bucket is implicit. Bounds are fixed at first
// registration; later calls for the same series ignore them.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	return r.register(name, help, histogramKind, labels, bounds, nil).hist
}

// register returns the series for (name, labels), creating the family,
// series, and instrument as needed — all under the registry lock, so
// concurrent first registrations of one series agree on a single
// instrument — and enforces kind consistency.
func (r *Registry) register(name, help string, k kind, labels Labels, bounds []float64, fn func() float64) *series {
	checkMetricName(name)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != k && !(f.kind == gaugeKind && k == gaugeFuncKind) && !(f.kind == gaugeFuncKind && k == gaugeKind) {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{signature: sig}
		switch k {
		case counterKind:
			s.counter = &Counter{}
		case gaugeKind:
			s.gauge = &Gauge{}
		case gaugeFuncKind:
			s.gaugeFn = fn
		case histogramKind:
			s.hist = newHistogram(bounds)
		}
		f.series[sig] = s
	} else if k == gaugeKind && s.gauge == nil || k == gaugeFuncKind && s.gaugeFn == nil {
		// Family-level gauge/gaugeFunc mixing is fine, but one series is
		// one instrument: a signature registered as a GaugeFunc cannot be
		// re-requested as a settable Gauge, or vice versa.
		panic(fmt.Sprintf("obs: metric %q series {%s} registered as the other gauge flavour", name, sig))
	}
	return s
}

// signature renders labels in canonical sorted `k="v",…` form.
func signature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		checkLabelName(k)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, escapeLabelValue(labels[k]))
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes to a label
// value; %q above supplies the quotes and escapes " and \ for us, so
// only the newline needs mapping — %q turns it into \n already. This
// helper therefore only strips characters %q would render as Go-style
// escapes Prometheus does not know (\t, \r, \xNN), replacing them with
// spaces to keep the exposition parseable.
func escapeLabelValue(v string) string {
	return strings.Map(func(r rune) rune {
		if r == '\t' || r == '\r' {
			return ' '
		}
		return r
	}, v)
}

// checkMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// checkLabelName enforces the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && allowColon:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
