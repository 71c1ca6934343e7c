package lint

import (
	"testing"
)

// cgNode finds the node for the named function of pkg in g.
func cgNode(t *testing.T, g *CallGraph, pkg *Package, name string) *CGNode {
	t.Helper()
	for _, n := range g.Funcs {
		if n.Src.Pkg == pkg && n.Fn.Name() == name && n.Fn.Pkg() == pkg.Types {
			return n
		}
	}
	t.Fatalf("function %s not in the call graph", name)
	return nil
}

// TestCallGraphRecursiveFixedPoint pins the termination and correctness
// of the bottom-up summary propagation on a recursive cycle: ping and
// pong call each other, only pong sends on a channel, and the MayBlock
// fact must reach both without the fixed-point loop spinning forever.
func TestCallGraphRecursiveFixedPoint(t *testing.T) {
	l, pkg := loadFixture(t, "callgraph")
	g := l.CallGraph()
	ping := cgNode(t, g, pkg, "ping")
	pong := cgNode(t, g, pkg, "pong")
	if ping.SCC != pong.SCC {
		t.Fatalf("ping (SCC %d) and pong (SCC %d) are mutually recursive and must share a component", ping.SCC, pong.SCC)
	}
	facts := g.Facts()
	for name, n := range map[string]*CGNode{"ping": ping, "pong": pong} {
		f := facts[n]
		if f == nil {
			t.Fatalf("no facts for %s", name)
		}
		if !f.MayBlock {
			t.Errorf("%s.MayBlock = false; the fact must propagate around the recursive cycle", name)
		}
	}
	// A function that merely calls into the cycle inherits the summary.
	draw := cgNode(t, g, pkg, "draw")
	if facts[draw] == nil {
		t.Fatal("no facts for draw")
	}
}

// TestCallGraphCHAResolution: an interface method call resolves to
// every loaded implementation, as CHA edges in declaration order.
func TestCallGraphCHAResolution(t *testing.T) {
	l, pkg := loadFixture(t, "callgraph")
	g := l.CallGraph()
	draw := cgNode(t, g, pkg, "draw")
	var impls []string
	for _, e := range draw.Calls {
		if e.Kind != CallCHA {
			t.Errorf("draw has a non-CHA edge to %s", e.Callee.Fn.FullName())
			continue
		}
		impls = append(impls, e.Callee.Fn.FullName())
	}
	if len(impls) != 2 {
		t.Fatalf("draw's interface call resolved to %d implementations %v, want 2", len(impls), impls)
	}
	// square is declared before circle; CHA edges keep declaration order.
	if impls[0] != "(fix/callgraph.square).area" || impls[1] != "(fix/callgraph.circle).area" {
		t.Errorf("CHA edges = %v, want square.area then circle.area", impls)
	}
	if len(draw.Unresolved) != 0 {
		t.Errorf("draw has %d unresolved calls, want 0", len(draw.Unresolved))
	}
}

// TestCallGraphRefDoesNotPropagate: taking a method value records a
// CallRef edge, and reference edges must not leak the callee's
// summary — holder never calls grab, so it acquires nothing.
func TestCallGraphRefDoesNotPropagate(t *testing.T) {
	l, pkg := loadFixture(t, "callgraph")
	g := l.CallGraph()
	grab := cgNode(t, g, pkg, "grab")
	holder := cgNode(t, g, pkg, "holder")
	refs := 0
	for _, e := range holder.Calls {
		if e.Callee == grab {
			if e.Kind != CallRef {
				t.Errorf("holder -> grab edge kind = %v, want CallRef", e.Kind)
			}
			refs++
		}
	}
	if refs != 1 {
		t.Fatalf("holder has %d edges to grab, want 1", refs)
	}
	facts := g.Facts()
	gf := facts[grab]
	if len(gf.MayAcquire) != 1 {
		t.Fatalf("grab.MayAcquire = %v, want exactly the mutex class", gf.MayAcquire)
	}
	if _, ok := gf.MayAcquire["(callgraph.guarded).mu"]; !ok {
		t.Errorf("grab.MayAcquire = %v, want class (callgraph.guarded).mu", gf.MayAcquire)
	}
	hf := facts[holder]
	if len(hf.MayAcquire) != 0 {
		t.Errorf("holder.MayAcquire = %v; a reference edge must not propagate acquisitions", hf.MayAcquire)
	}
}

// TestCallGraphSCCOrder: SCCs come out of Tarjan bottom-up, so every
// static callee's component index is at most its caller's.
func TestCallGraphSCCOrder(t *testing.T) {
	l, _ := loadFixture(t, "callgraph")
	g := l.CallGraph()
	for _, n := range g.Funcs {
		for _, e := range n.Calls {
			if e.Kind == CallRef || e.Callee.Src == nil {
				continue
			}
			if e.Callee.SCC > n.SCC {
				t.Errorf("callee %s (SCC %d) ordered after caller %s (SCC %d)",
					e.Callee.Fn.Name(), e.Callee.SCC, n.Fn.Name(), n.SCC)
			}
		}
	}
}
