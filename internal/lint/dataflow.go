package lint

// A small forward-dataflow framework over the CFGs of cfg.go: a fact
// lattice, a per-node transfer function, and a deterministic worklist
// solver. The lock analyzers instantiate it with finite bit-set
// lattices (lock states, held sets), so fixpoints are reached quickly;
// a hard iteration cap guards against a non-monotone transfer function
// spinning.

import "go/ast"

// Fact is an abstract state flowing along CFG edges. Implementations
// are immutable: Join and transfer functions return fresh values.
type Fact interface {
	// Join merges the state of a second incoming edge.
	Join(other Fact) Fact
	// Equal reports whether two facts carry identical information;
	// the solver uses it to detect the fixpoint.
	Equal(other Fact) bool
}

// Transfer computes the state after executing node n in state in.
type Transfer func(n ast.Node, in Fact) Fact

// Forward solves a forward dataflow problem to fixpoint and returns
// the fact at ENTRY of each reachable block. Unreachable blocks are
// absent from the result. The worklist is processed in block-ID order,
// so the solve — and any diagnostics derived from it — is
// deterministic.
func Forward(g *CFG, entry Fact, transfer Transfer) map[*Block]Fact {
	in := map[*Block]Fact{g.Entry: entry}
	queued := make([]bool, len(g.Blocks))
	work := []*Block{g.Entry}
	queued[g.Entry.ID] = true
	// Finite lattices converge in O(blocks × lattice height); the cap
	// only matters for a buggy (non-monotone) transfer function.
	maxSteps := 64*len(g.Blocks) + 256
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		// Pop the lowest-ID queued block: deterministic and close to
		// reverse-postorder for the builder's creation order.
		bi := 0
		for i := 1; i < len(work); i++ {
			if work[i].ID < work[bi].ID {
				bi = i
			}
		}
		blk := work[bi]
		work[bi] = work[len(work)-1]
		work = work[:len(work)-1]
		queued[blk.ID] = false

		out := in[blk]
		for _, n := range blk.Nodes {
			out = transfer(n, out)
		}
		for _, s := range blk.Succs {
			cur, ok := in[s]
			merged := out
			if ok {
				merged = cur.Join(out)
			}
			if !ok || !merged.Equal(cur) {
				in[s] = merged
				if !queued[s.ID] {
					work = append(work, s)
					queued[s.ID] = true
				}
			}
		}
	}
	return in
}

// --- bit-set state facts -------------------------------------------------
//
// The lock analyzers track, per mutex, a SET of abstract values the
// mutex may hold on some path reaching the program point. stateFact
// maps a stable object key to a bitmask of possible values; Join is
// elementwise union, and a key absent from the map means "not yet
// touched on this path".

// stateFact maps object keys to bitmasks of possible abstract values.
type stateFact map[string]uint8

func (f stateFact) Join(other Fact) Fact {
	o := other.(stateFact)
	merged := make(stateFact, len(f)+len(o))
	for k, v := range f {
		merged[k] = v
	}
	for k, v := range o {
		merged[k] |= v
	}
	return merged
}

func (f stateFact) Equal(other Fact) bool {
	o := other.(stateFact)
	if len(f) != len(o) {
		return false
	}
	for k, v := range f {
		if o[k] != v {
			return false
		}
	}
	return true
}

// with returns a copy of f with key set to mask.
func (f stateFact) with(key string, mask uint8) stateFact {
	out := make(stateFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	out[key] = mask
	return out
}

// mapEach applies op to every possible value of key and unions the
// results, returning the updated fact. Keys absent start as absent:
// the caller decides the initial mask via init.
func (f stateFact) mapEach(key string, init uint8, op func(v uint8) uint8) stateFact {
	mask, ok := f[key]
	if !ok || mask == 0 {
		mask = init
	}
	var out uint8
	for v := uint8(0); v < 8; v++ {
		if mask&(1<<v) != 0 {
			out |= 1 << op(v)
		}
	}
	return f.with(key, out)
}

// has reports whether the key's current mask admits value v.
func (f stateFact) has(key string, v uint8) bool {
	return f[key]&(1<<v) != 0
}
