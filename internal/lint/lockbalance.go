package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockBalance proves, per function and per mutex, that every
// acquisition is released on every control-flow path. It runs the
// forward dataflow solver over each function's CFG with a four-state
// abstraction per mutex:
//
//	unlocked → Lock → locked → defer Unlock → lockedDeferred
//	lockedDeferred → Unlock → unlockedDeferred (re-Lock returns to lockedDeferred)
//
// and reports:
//
//   - a Lock on a path that may already hold the mutex (self-deadlock),
//   - a Lock not matched by an Unlock (direct or deferred) on every
//     path to the function's exit,
//   - an Unlock on a path where the mutex is not held (runtime panic),
//   - a deferred Unlock left to fire after the mutex was already
//     released (double-unlock panic at return).
//
// A lock copied into a goroutine by value is go vet's copylocks check.
//
// RLock/RUnlock pairs are tracked separately; recursive RLock is legal
// and not flagged, but a read lock missing its RUnlock on some path is.
// The analysis is intraprocedural: helpers that lock on behalf of their
// caller (or unlock a caller's lock) are outside its scope and would
// need a justified //lopc:allow.
type LockBalance struct{}

func (*LockBalance) Name() string { return "lockbalance" }
func (*LockBalance) Doc() string {
	return "every mutex Lock must be released on every path; no double-Lock or stray Unlock"
}

// Abstract per-mutex states (bit positions in a stateFact mask).
const (
	lbUnlocked         = 0 // not held
	lbLocked           = 1 // held, release not yet scheduled
	lbLockedDeferred   = 2 // held, deferred Unlock armed
	lbUnlockedDeferred = 3 // released, but a deferred Unlock is still armed
)

func (a *LockBalance) Check(l *Loader, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		funcNodes(f, func(fn ast.Node, body *ast.BlockStmt) {
			out = append(out, a.checkFunc(l, pkg, body)...)
		})
	}
	return out
}

// hasMutexOps cheaply pre-screens a body for mutex method calls.
func hasMutexOps(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	walkShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sc := syncCallOf(pkg, n); sc != nil && sc.typ != "WaitGroup" {
			found = true
			return false
		}
		return true
	})
	return found
}

func (a *LockBalance) checkFunc(l *Loader, pkg *Package, body *ast.BlockStmt) []Diagnostic {
	if !hasMutexOps(pkg, body) {
		return nil
	}
	g := NewCFG(body)
	// Solve without reporting, then replay block-by-block in ID order
	// emitting diagnostics against the fixpoint facts.
	facts := Forward(g, stateFact{}, func(n ast.Node, in Fact) Fact {
		return a.transfer(pkg, n, in.(stateFact), nil)
	})
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     l.Fset.Position(pos),
			Check:   a.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	lockSite := map[string]token.Pos{} // earliest Lock per key, for exit diagnostics
	for _, blk := range g.Blocks {
		in, ok := facts[blk]
		if !ok {
			continue // unreachable
		}
		fact := in.(stateFact)
		for _, n := range blk.Nodes {
			a.recordLockSites(pkg, n, lockSite)
			fact = a.transfer(pkg, n, fact, report)
		}
	}
	if exitFact, ok := facts[g.Exit]; ok {
		ef := exitFact.(stateFact)
		for _, key := range sortedKeys(ef) {
			name := displayName(key)
			pos, havePos := lockSite[key]
			if !havePos {
				continue
			}
			if strings.HasSuffix(key, "#r") {
				// Read keys hold a saturating count: any nonzero depth
				// reaching exit is a leaked read lock.
				if ef[key]&^(1<<0) != 0 {
					report(pos, "%s is not released on every path; RUnlock before each return or defer the RUnlock", name)
				}
				continue
			}
			if ef.has(key, lbLocked) {
				report(pos, "%s is not released on every path; Unlock before each return or defer the Unlock", name)
			}
			if ef.has(key, lbUnlockedDeferred) {
				report(pos, "deferred Unlock of %s fires after it was already released on some path (double unlock panics)", name)
			}
		}
	}
	return out
}

// transfer folds one CFG node into the per-mutex states, optionally
// reporting violations at the node.
func (a *LockBalance) transfer(pkg *Package, n ast.Node, fact stateFact, report func(token.Pos, string, ...any)) stateFact {
	for _, op := range mutexOpsIn(pkg, n) {
		fact = a.apply(op, fact, report)
	}
	return fact
}

// mutexOp is one Lock/Unlock-family call, with deferred marking.
type mutexOp struct {
	sc       *syncCall
	deferred bool
}

// mutexOpsIn extracts the mutex operations a block node performs, in
// order. A defer of a closure body is scanned for the common
// `defer func() { mu.Unlock() }()` idiom.
func mutexOpsIn(pkg *Package, n ast.Node) []mutexOp {
	var ops []mutexOp
	add := func(c ast.Node, deferred bool) {
		if sc := syncCallOf(pkg, c); sc != nil && sc.typ != "WaitGroup" && sc.recvKey != "" {
			ops = append(ops, mutexOp{sc: sc, deferred: deferred})
		}
	}
	if ds, ok := n.(*ast.DeferStmt); ok {
		if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			walkShallow(lit.Body, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					add(call, true)
				}
				return true
			})
			return ops
		}
		add(ds, true)
		return ops
	}
	walkBlockNode(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.DeferStmt:
			return true // handled when the defer node itself is visited
		case *ast.CallExpr:
			add(c, false)
		}
		return true
	})
	return ops
}

func (a *LockBalance) apply(op mutexOp, fact stateFact, report func(token.Pos, string, ...any)) stateFact {
	sc := op.sc
	key := sc.recvKey
	read := false
	method := sc.method
	switch method {
	case "RLock":
		key += "#r"
		read = true
		method = "Lock"
	case "RUnlock":
		key += "#r"
		read = true
		method = "Unlock"
	case "TryLock", "TryRLock", "RLocker":
		return fact // outcome-dependent; not modeled
	}
	name := displayName(sc.recvKey)
	if read {
		name += " (read lock)"
	}
	pos := sc.call.Pos()
	diag := func(format string, args ...any) {
		if report != nil {
			report(pos, format, args...)
		}
	}
	if read {
		// Read locks are recursive, so the state is a saturating hold
		// count 0..3 rather than the write-lock state machine. A
		// deferred RUnlock is folded in at registration: that loses
		// double-unlock precision but keeps the common
		// RLock/defer-RUnlock pair exact on every path.
		switch method {
		case "Lock":
			return fact.mapEach(key, 1<<0, func(v uint8) uint8 {
				if v < 3 {
					return v + 1
				}
				return 3
			})
		case "Unlock":
			if fact[key] == 1<<0 {
				diag("RUnlock of %s on a path where it is not held", name)
			}
			return fact.mapEach(key, 1<<1, func(v uint8) uint8 {
				if v > 0 {
					return v - 1
				}
				return 0
			})
		}
		return fact
	}
	switch {
	case method == "Lock" && !op.deferred:
		if !read && (fact.has(key, lbLocked) || fact.has(key, lbLockedDeferred)) {
			diag("second Lock of %s on a path that may already hold it (self-deadlock)", name)
		}
		return fact.mapEach(key, 1<<lbUnlocked, func(v uint8) uint8 {
			if v == lbUnlockedDeferred {
				return lbLockedDeferred
			}
			if v == lbLockedDeferred {
				return lbLockedDeferred
			}
			return lbLocked
		})
	case method == "Unlock" && !op.deferred:
		if fact.has(key, lbUnlocked) || fact.has(key, lbUnlockedDeferred) {
			diag("Unlock of %s on a path where it is not held (unlock of unlocked mutex panics)", name)
		}
		return fact.mapEach(key, 1<<lbLocked, func(v uint8) uint8 {
			if v == lbLockedDeferred || v == lbUnlockedDeferred {
				return lbUnlockedDeferred
			}
			return lbUnlocked
		})
	case method == "Unlock" && op.deferred:
		if fact.has(key, lbLockedDeferred) {
			diag("second deferred Unlock of %s (double unlock panics at return)", name)
		}
		return fact.mapEach(key, 1<<lbLocked, func(v uint8) uint8 {
			if v == lbUnlocked {
				return lbUnlockedDeferred
			}
			return lbLockedDeferred
		})
	case method == "Lock" && op.deferred:
		// defer mu.Lock() is always a bug, but an exotic one; treat as
		// a plain no-op for the state machine.
		diag("deferred Lock of %s acquires the mutex at return and never releases it", name)
		return fact
	}
	return fact
}

// recordLockSites remembers the first Lock/RLock position per mutex
// key so exit-path diagnostics can point at the acquisition.
func (a *LockBalance) recordLockSites(pkg *Package, n ast.Node, sites map[string]token.Pos) {
	for _, op := range mutexOpsIn(pkg, n) {
		if op.deferred {
			continue
		}
		key, method := op.sc.recvKey, op.sc.method
		if method == "RLock" {
			key += "#r"
		}
		if method == "Lock" || method == "RLock" {
			if old, ok := sites[key]; !ok || op.sc.call.Pos() < old {
				sites[key] = op.sc.call.Pos()
			}
		}
	}
}

// sortedKeys returns the fact's keys in sorted order, for
// deterministic exit diagnostics.
func sortedKeys(f stateFact) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// displayName renders a state key ("c@123.mu" or "mu@87#r") back to
// source-like form ("c.mu", "mu").
func displayName(key string) string {
	out := make([]byte, 0, len(key))
	skip := false
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c == '@' || c == '#':
			skip = true
		case c == '.' || c == '[':
			skip = false
			out = append(out, c)
		case !skip:
			out = append(out, c)
		}
	}
	return string(out)
}
