package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/clock"
)

// meter accumulates one measured stretch: per-window wall and CPU
// time, every op's latency and failure counts. A window is one timed
// batch; checks run between windows, outside the timed region. Not safe
// for concurrent use: fan-out workloads hand latencies back to the
// goroutine that owns the meter.
type meter struct {
	clk clock.Clock
	// mem also records allocation and GC deltas across timed regions.
	mem   bool
	tailQ float64

	ops, failed int
	// diag receives failed-check descriptions; nil drops them.
	diag io.Writer
	// speed, when set, is sampled after each window.
	speed   *speedRef
	reports int
	windows []window
	lat     latHist // every op latency of the run
	open    int     // ops recorded in the open window

	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

// maxReports caps the failed-check lines one run prints.
const maxReports = 20

// window summarizes one timed batch.
type window struct {
	ops       int
	wall, cpu time.Duration
	// held is the memory the Go runtime holds from the OS at the
	// window's end, in bytes.
	held uint64
}

func newMeter(clk clock.Clock, mem bool, tailQ float64) *meter {
	return &meter{clk: clk, mem: mem, tailQ: tailQ, lat: newLatHist()}
}

// begin opens the timed region of a window. A collection first makes
// every window start from the same settled heap, so GC debt from the
// previous window's checks does not land in this window's timings or
// memory.
func (m *meter) begin() {
	runtime.GC()
	if m.mem {
		runtime.ReadMemStats(&m.ms0)
	}
	m.cpu0 = processCPU()
	m.t0 = m.clk.Now()
}

// end closes the timed region and the window.
func (m *meter) end() {
	wall := m.clk.Now().Sub(m.t0)
	cpu := processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if m.mem {
		m.mallocs += ms.Mallocs - m.ms0.Mallocs
		m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
		m.gcs += ms.NumGC - m.ms0.NumGC
	}
	m.windows = append(m.windows, window{ops: m.open, wall: wall, cpu: cpu, held: ms.Sys - ms.HeapReleased})
	m.open = 0
	if m.speed != nil {
		m.speed.sample(refPerWindow)
	}
}

// op records one completed op's latency.
func (m *meter) op(d time.Duration) {
	m.opUnranked()
	m.lat.add(d)
}

// opUnranked records a completed op that counts in throughput and CPU
// per op but not in the latency percentiles.
func (m *meter) opUnranked() {
	m.ops++
	m.open++
}

// fail counts ops whose output failed its check.
func (m *meter) fail(n int) { m.failed += n }

// report describes a failed check on the diagnostics stream, up to
// maxReports lines per run.
func (m *meter) report(format string, args ...any) {
	if m.diag == nil || m.reports >= maxReports {
		return
	}
	m.reports++
	fmt.Fprintf(m.diag, "perfbench: check failed: "+format+"\n", args...)
}

// opsPerSec is the median over windows of the window throughput, so a
// co-tenant burst in a few windows does not move it.
func (m *meter) opsPerSec() float64 {
	var xs []float64
	for _, w := range m.windows {
		if w.wall > 0 && w.ops > 0 {
			xs = append(xs, float64(w.ops)/w.wall.Seconds())
		}
	}
	return median(xs)
}

// cpuPerOp is the median over windows of process CPU per op.
func (m *meter) cpuPerOp() time.Duration {
	var xs []float64
	for _, w := range m.windows {
		if w.ops > 0 {
			xs = append(xs, float64(w.cpu)/float64(w.ops))
		}
	}
	return time.Duration(median(xs))
}

// percentiles returns the median and tail latency in ms over every op
// of the run.
func (m *meter) percentiles() (float64, float64) {
	return m.lat.quantile(0.5), m.lat.quantile(m.tailQ)
}

// Latency histogram geometry: bucket i holds latencies in
// [histMin·histGrowth^i, histMin·histGrowth^(i+1)), 0.2% wide, from
// 100 ns to beyond 100 s (the last bucket also takes anything longer).
const (
	histMin     = 100 * time.Nanosecond
	histGrowth  = 1.002
	histBuckets = 10_500
)

// latHist counts op latencies in log-spaced buckets. Its size is fixed,
// so a run of a million ops records every latency without growing the
// heap during the timed windows.
type latHist struct {
	counts []uint64
	n      uint64
}

func newLatHist() latHist { return latHist{counts: make([]uint64, histBuckets)} }

func (h *latHist) add(d time.Duration) {
	i := 0
	if d > histMin {
		i = min(int(math.Log(float64(d)/float64(histMin))/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in ms, interpolated geometrically
// within the bucket that holds rank q·n; 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			pos := float64(i) + (rank-cum)/float64(c)
			return float64(histMin) * math.Pow(histGrowth, pos) / float64(time.Millisecond)
		}
		cum += float64(c)
	}
	return 0
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// median of an unsorted sample; 0 when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heldMB is the median over windows of the memory the Go runtime
// holds from the OS at the window's end (mapped and not returned), in
// MiB.
func (m *meter) heldMB() float64 {
	var xs []float64
	for _, w := range m.windows {
		xs = append(xs, float64(w.held)/(1<<20))
	}
	return median(xs)
}
