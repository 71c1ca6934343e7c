package main

import (
	"container/heap"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/clock"
)

// The reference host is shared, and its speed drifts: pinned to one
// core, the same serve-hot window ran anywhere from 31k to 72k requests
// per second within one minute, and process CPU per request moved with
// it, so the cores themselves ran slower; the process did not wait off
// them. A speedRef times a
// fixed kernel between windows and scales the run's times to a host on
// which the kernel takes refNominal. The kernel is the benchmark's own
// code and touches nothing of the repository, so a change to the
// program moves the scaled metrics exactly as it moves the raw ones.

// refNominal is a typical median time of the kernel on the reference
// host (runs read 1.5–1.8 ms).
const refNominal = 1.6 // ms

// refPerWindow is the number of kernel samples taken after each window.
const refPerWindow = 3

// speedRef samples the host-speed kernel. It runs one copy at a time,
// on the calling goroutine. Two copies at once, for the workloads that
// fan out over both cores, moved by up to 50% between sim-par runs whose
// unscaled CPU per op moved by 10%, most likely because they also timed
// how fast an idle vCPU woke up.
type speedRef struct {
	clk     clock.Clock
	samples []float64 // kernel times in ms
	// The kernel's working set, allocated once.
	events eventHeap
	xs     []float64
	m      map[uint64]float64
	buf    []byte
	sink   float64
}

func newSpeedRef(clk clock.Clock) *speedRef {
	return &speedRef{
		clk:    clk,
		events: make(eventHeap, 0, 512),
		xs:     make([]float64, 2048),
		m:      make(map[uint64]float64, 1024),
		buf:    make([]byte, 0, 256),
	}
}

// refRequest is the kernel's JSON round trip, shaped like a solve
// request.
type refRequest struct {
	P  int     `json:"p"`
	W  float64 `json:"w"`
	St float64 `json:"st"`
	So float64 `json:"so"`
	C2 float64 `json:"c2"`
}

// eventHeap is a min-heap of event times behind container/heap, as the
// simulators keep theirs.
type eventHeap []float64

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// sample collects the heap, so no collection left over from the
// workload runs beside the kernel, then times n runs of the kernel.
func (s *speedRef) sample(n int) {
	runtime.GC()
	for range n {
		t0 := s.clk.Now()
		s.kernel()
		s.samples = append(s.samples, float64(s.clk.Now().Sub(t0))/float64(time.Millisecond))
	}
}

// kernel is one run of the fixed reference work, the mix of work the
// workloads do: an event-heap simulation with exponential draws, JSON
// request decoding and encoding, hashing into a map, a sort and float
// formatting.
func (s *speedRef) kernel() {
	// A fixed seed, not -seed: the kernel must do the same work on
	// every run of every workload.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	acc := 0.0
	s.events = s.events[:0]
	for range 256 {
		heap.Push(&s.events, -math.Log(1-next()))
	}
	for range 4096 {
		t := heap.Pop(&s.events).(float64)
		acc += t
		heap.Push(&s.events, t-math.Log(1-next())*100)
	}
	var req refRequest
	for i := range 32 {
		s.buf = append(s.buf[:0], `{"p":32,"w":`...)
		s.buf = strconv.AppendFloat(s.buf, next()*4096, 'g', -1, 64)
		s.buf = append(s.buf, `,"st":40,"so":200,"c2":1}`...)
		if err := json.Unmarshal(s.buf, &req); err != nil {
			panic(err)
		}
		req.P += i
		out, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		acc += float64(len(out))
	}
	for i := range s.xs {
		v := next() * 1e6
		s.xs[i] = v
		s.m[x%1024] += v
	}
	sort.Float64s(s.xs)
	for _, v := range s.xs[:256] {
		s.buf = strconv.AppendFloat(s.buf[:0], v, 'g', -1, 64)
		acc += math.Sqrt(v) / (1 + v + float64(len(s.buf)))
	}
	s.sink = acc + s.m[7]
}

// factor is refNominal over the median kernel time: multiply a time by
// it, and divide a rate by it, to read them at reference speed. It is 1
// before any sample.
func (s *speedRef) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refNominal / median(s.samples)
}
