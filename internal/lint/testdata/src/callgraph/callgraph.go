// Package callgraph is the fixture for the call-graph engine tests
// (callgraph_test.go): a mutually recursive pair whose summaries must
// reach a fixed point, an interface with two loaded implementations
// for CHA resolution, a lock acquisition for the MayAcquire summary,
// and a method value taken without being called (a reference edge that
// must not propagate facts). It carries no // want comments: the tests
// assert on graph structure, not diagnostics.
package callgraph

import "sync"

// ping and pong are mutually recursive; only pong sends on a channel,
// so the MayBlock fact must propagate around the cycle to ping and the
// fixed-point iteration must still terminate.
func ping(n int, ch chan int) {
	if n <= 0 {
		return
	}
	pong(n-1, ch)
}

func pong(n int, ch chan int) {
	ch <- n
	if n > 0 {
		ping(n-1, ch)
	}
}

// shape has two loaded implementations; draw's interface call must
// resolve to both under CHA, in declaration order.
type shape interface{ area() float64 }

type square struct{ side float64 }

func (s square) area() float64 { return s.side * s.side }

type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r }

func draw(s shape) float64 { return s.area() }

// guarded gives grab a lock class for the MayAcquire summary.
type guarded struct {
	mu sync.Mutex
	n  int
}

func (g *guarded) grab() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// holder takes grab as a method value without calling it: a CallRef
// edge, so grab's MayAcquire must NOT leak into holder's summary.
func holder(g *guarded) func() int {
	f := g.grab
	return f
}
