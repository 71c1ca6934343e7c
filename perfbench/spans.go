package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// maxChromeSpans caps the Chrome trace kept in memory; the per-layer
// aggregates below see every span regardless.
const maxChromeSpans = 200_000

// tracer records a span around each call the benchmark makes into a
// layer. Spans are aggregated per (layer, name) as they close — total
// time and self time, the span's duration minus the part its child
// spans cover — and mirrored into a trace.Spans collector written out
// as a Chrome trace at exit. A nil *tracer records nothing, which is
// how untraced runs call the same code. Safe for concurrent use.
type tracer struct {
	clk    clock.Clock
	origin time.Time
	chrome *trace.Spans

	mu   sync.Mutex
	next int
	open map[int]*openSpan
	agg  map[spanKey]*spanAgg
}

type spanKey struct{ layer, name string }

type openSpan struct {
	key    spanKey
	parent int
	start  time.Duration
	kids   [][2]time.Duration
	close  func(map[string]any)
}

type spanAgg struct {
	n           int
	total, self time.Duration
}

func newTracer(clk clock.Clock) *tracer {
	chrome := trace.NewSpans(clk)
	chrome.MaxEvents = maxChromeSpans
	chrome.Process = "perfbench"
	return &tracer{
		clk:    clk,
		origin: clk.Now(),
		chrome: chrome,
		open:   map[int]*openSpan{},
		agg:    map[spanKey]*spanAgg{},
	}
}

// start opens a span under parent (0 for a root span) and returns its
// id, which end closes. On a nil tracer it returns 0 and records
// nothing.
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	closeChrome := t.chrome.Start(layer, name)
	now := t.clk.Now().Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = &openSpan{key: spanKey{layer, name}, parent: parent, start: now, close: closeChrome}
	return t.next
}

// end closes span id, folding it into its layer's aggregates and
// registering its interval with its parent.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.clk.Now().Sub(t.origin)
	t.mu.Lock()
	s := t.open[id]
	delete(t.open, id)
	if p := t.open[s.parent]; p != nil {
		p.kids = append(p.kids, [2]time.Duration{s.start, now})
	}
	a := t.agg[s.key]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.key] = a
	}
	dur := now - s.start
	a.n++
	a.total += dur
	a.self += dur - covered(s.kids, s.start, now)
	t.mu.Unlock()
	s.close(map[string]any{"id": id, "parent": s.parent})
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	curLo, curHi := max(iv[0][0], lo), min(iv[0][1], hi)
	for _, x := range iv[1:] {
		a, b := max(x[0], lo), min(x[1], hi)
		if a > curHi {
			sum += max(curHi-curLo, 0)
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return sum + max(curHi-curLo, 0)
}

// stat returns the aggregate of one (layer, name) pair.
func (t *tracer) stat(layer, name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[spanKey{layer, name}]; a != nil {
		return *a
	}
	return spanAgg{}
}

// meanUS is the mean span duration of (layer, name) in microseconds.
func (t *tracer) meanUS(layer, name string) float64 {
	a := t.stat(layer, name)
	if a.n == 0 {
		return 0
	}
	return a.total.Seconds() * 1e6 / float64(a.n)
}

// keys lists the aggregated (layer, name) pairs in sorted order.
func (t *tracer) keys() []spanKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]spanKey, 0, len(t.agg))
	for k := range t.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
	return keys
}

// layerSelf sums the self time of every span of a layer.
func (t *tracer) layerSelf(layer string) time.Duration {
	var sum time.Duration
	for _, k := range t.keys() {
		if k.layer == layer {
			sum += t.stat(k.layer, k.name).self
		}
	}
	return sum
}

// writeSummary prints the per-layer table: span count, total and self
// time per (layer, name).
func (t *tracer) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-14s %10s %12s %12s %12s\n", "layer", "name", "spans", "total_ms", "self_ms", "mean_us")
	for _, k := range t.keys() {
		a := t.stat(k.layer, k.name)
		fmt.Fprintf(w, "%-10s %-14s %10d %12.3f %12.3f %12.3f\n", k.layer, k.name, a.n,
			a.total.Seconds()*1e3, a.self.Seconds()*1e3, a.total.Seconds()*1e6/float64(a.n))
	}
	if t.chrome.Truncated() {
		fmt.Fprintf(w, "perfbench: chrome trace truncated at %d spans (aggregates above are complete)\n", maxChromeSpans)
	}
}
