// Package workload drives the simulated machine with the communication
// patterns the LoPC paper studies — homogeneous all-to-all (Ch. 5),
// client-server work-pile (Ch. 6), and multi-hop requests (App. A) —
// and measures exactly the quantities the model predicts: the
// compute/request cycle time R and its components Rw, Rq, Ry, plus
// throughput, queue lengths, and utilizations.
//
// Every workload runs on the discrete-event core (internal/psim, with
// internal/machine for the machine); see ParSim. Multi-hop,
// multithreaded, non-blocking and exchange runs keep each node's
// measurements in its own program and carry their cross-node data in
// the messages, so they need no state shared between nodes.
package workload

import (
	"fmt"

	"repro/internal/machine"
)

// Pattern chooses the destination of each request a node makes.
// Implementations must be stateless: a destination is a pure function
// of the node and its random stream, which is what lets the optimistic
// core replay rolled-back draws identically.
type Pattern interface {
	// Dest returns the destination for the next request from v's node.
	Dest(v *machine.NodeView) int
	// String names the pattern for experiment logs.
	String() string
}

// UniformPattern sends each request to a uniformly random peer — the
// irregular, homogeneous pattern of Chapter 5.
type UniformPattern struct{}

// Dest implements Pattern.
func (UniformPattern) Dest(v *machine.NodeView) int {
	d := v.Rand().Intn(v.N() - 1)
	if d >= v.Self() {
		d++
	}
	return d
}

func (UniformPattern) String() string { return "uniform" }

// RingPattern always sends to the next node around a ring — a perfectly
// regular pattern. If every node stays synchronized it is
// contention-free; small timing perturbations (e.g. non-zero handler
// variance) decay it toward the random behaviour Brewer and Kuszmaul
// observed on the CM-5.
type RingPattern struct{}

// Dest implements Pattern.
func (RingPattern) Dest(v *machine.NodeView) int {
	return (v.Self() + 1) % v.N()
}

func (RingPattern) String() string { return "ring" }

// ShiftPattern sends to the node Offset positions ahead (mod P), a
// generalization of RingPattern.
type ShiftPattern struct{ Offset int }

// Dest implements Pattern.
func (s ShiftPattern) Dest(v *machine.NodeView) int {
	p, self := v.N(), v.Self()
	d := (self + s.Offset) % p
	if d < 0 {
		d += p
	}
	if d == self {
		// Degenerate offset: fall back to the next node so a request
		// never targets its own sender.
		d = (self + 1) % p
	}
	return d
}

func (s ShiftPattern) String() string { return fmt.Sprintf("shift(%d)", s.Offset) }

// HotspotPattern sends a fraction Bias of requests to node Hot and the
// rest uniformly — a non-homogeneous pattern for exercising the general
// (Appendix A) model.
type HotspotPattern struct {
	Hot  int
	Bias float64 // in [0, 1]
}

// Dest implements Pattern.
func (h HotspotPattern) Dest(v *machine.NodeView) int {
	r, self := v.Rand(), v.Self()
	if h.Hot != self && r.Float64() < h.Bias {
		return h.Hot
	}
	d := r.Intn(v.N() - 1)
	if d >= self {
		d++
	}
	return d
}

func (h HotspotPattern) String() string { return fmt.Sprintf("hotspot(%d,%.2f)", h.Hot, h.Bias) }

// HotspotVisits returns the Appendix-A visit matrix corresponding to
// HotspotPattern: each non-hot thread sends Bias of its traffic to Hot
// and spreads the remainder uniformly over the other peers; the hot
// thread itself sends uniformly.
func HotspotVisits(p, hot int, bias float64) [][]float64 {
	v := make([][]float64, p)
	for c := range v {
		v[c] = make([]float64, p)
		if c == hot {
			for k := range v[c] {
				if k != c {
					v[c][k] = 1 / float64(p-1)
				}
			}
			continue
		}
		rest := (1 - bias) / float64(p-1)
		for k := range v[c] {
			if k == c {
				continue
			}
			if k == hot {
				// The uniform remainder also lands on the hot node with
				// probability rest... except HotspotPattern draws the
				// uniform destination from all peers, hot included.
				v[c][k] = bias + rest
			} else {
				v[c][k] = rest
			}
		}
	}
	return v
}
