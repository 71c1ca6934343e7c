// Package lockbalance is the fixture for the lockbalance analyzer:
// path-sensitive Lock/Unlock balance, double-Lock, stray Unlock and
// deferred double-unlock.
package lockbalance

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// LeakOnError forgets the unlock on the early-return path.
func (c *counter) LeakOnError(limit int) bool {
	c.mu.Lock() // want "not released on every path"
	if c.n >= limit {
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// DoubleLock deadlocks against itself.
func (c *counter) DoubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want "second Lock"
	c.n++
	c.mu.Unlock()
}

// StrayUnlock releases a mutex it never acquired (second Unlock).
func (c *counter) StrayUnlock() {
	c.mu.Lock()
	c.mu.Unlock()
	c.mu.Unlock() // want "not held"
}

// DeferThenUnlock releases early and then the deferred Unlock fires a
// second time at return.
func (c *counter) DeferThenUnlock() int {
	c.mu.Lock() // want "deferred Unlock"
	defer c.mu.Unlock()
	c.n++
	c.mu.Unlock()
	return c.n
}

// LockerLeak reaches the mutex through a sync.Locker interface; the
// call graph's CHA fallback resolves the concrete method set, so the
// early-return leak is still caught.
func (c *counter) LockerLeak(limit int) bool {
	var l sync.Locker = &c.mu
	l.Lock() // want "not released on every path"
	if c.n >= limit {
		return false
	}
	c.n++
	l.Unlock()
	return true
}

// LockerBalanced is the interface-receiver negative control.
func (c *counter) LockerBalanced() int {
	var l sync.Locker = &c.mu
	l.Lock()
	defer l.Unlock()
	c.n++
	return c.n
}

// ReadLeak holds the read lock on the early-return path.
func (c *counter) ReadLeak(limit int) int {
	c.rw.RLock() // want "not released on every path"
	if c.n > limit {
		return limit
	}
	n := c.n
	c.rw.RUnlock()
	return n
}

// --- negative cases: all of these are clean ---

// Balanced uses the canonical Lock/defer Unlock pair.
func (c *counter) Balanced() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// BalancedBranches unlocks explicitly on both paths.
func (c *counter) BalancedBranches(limit int) bool {
	c.mu.Lock()
	if c.n >= limit {
		c.mu.Unlock()
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// ConditionalHold locks and defers only on one branch.
func (c *counter) ConditionalHold(really bool) {
	if really {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

// DeferredClosure releases through the defer-closure idiom.
func (c *counter) DeferredClosure() {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	c.n++
}

// RecursiveRead takes the read lock twice; that is legal.
func (c *counter) RecursiveRead() int {
	c.rw.RLock()
	c.rw.RLock()
	n := c.n
	c.rw.RUnlock()
	c.rw.RUnlock()
	return n
}

// LoopBalanced locks and unlocks once per iteration.
func (c *counter) LoopBalanced(rounds int) {
	for i := 0; i < rounds; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

// Suppressed documents a justified hand-off: the lock is released by
// the paired release helper, which the intraprocedural analysis cannot
// see.
func (c *counter) Suppressed() {
	//lopc:allow lockbalance released by the paired releaseSuppressed helper
	c.mu.Lock()
	c.n++
}

func (c *counter) releaseSuppressed() {
	c.mu.Unlock()
}
