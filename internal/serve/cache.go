package serve

import (
	"container/list"
	"errors"
	"sync"
)

// solveCache memoizes rendered solve responses: an LRU over canonical
// parameter keys (see key.go) with singleflight collapse, so a
// thundering herd on one hot parameter point performs exactly one AMVA
// fixed-point solve and every caller gets the same bytes.
//
// Values are immutable once inserted — handlers hand the byte slice
// straight to the response writer and never modify it — which is what
// makes "a cache hit is byte-identical to a cold solve" a testable
// invariant rather than a hope.
type solveCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key → element whose Value is *cacheEntry
	calls map[string]*flightCall   // in-flight solves, keyed like items
}

type cacheEntry struct {
	key string
	val []byte
}

// flightCall is one in-flight solve other callers can wait on.
type flightCall struct {
	done chan struct{} // closed when val/err are set
	val  []byte
	err  error
}

// outcome classifies how a Get was served, for the metrics layer.
type outcome int

const (
	outcomeMiss      outcome = iota // this caller ran the solve
	outcomeHit                      // served from the LRU
	outcomeCollapsed                // waited on another caller's solve
)

// newSolveCache builds a cache holding up to capacity responses.
// capacity <= 0 disables memoization but keeps singleflight collapse:
// concurrent identical requests still share one solve.
func newSolveCache(capacity int) *solveCache {
	return &solveCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		calls: make(map[string]*flightCall),
	}
}

// len reports the number of cached entries.
func (c *solveCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// errSolvePanicked is what collapsed waiters get when the solve they
// waited on panicked; the panic itself stays with the caller that ran
// the solve.
var errSolvePanicked = errors.New("solve panicked")

// get returns the cached response for key, or runs solve to produce it.
// Concurrent gets for the same key collapse onto one solve call; errors
// are returned to every collapsed waiter but never cached, so a
// transient failure doesn't poison the key. A panicking solve still
// releases its flight before the panic propagates, so the key stays
// usable. key is only read during the call: a hit or a collapse copies
// nothing, and a miss keeps its own string copy.
func (c *solveCache) get(key []byte, solve func() ([]byte, error)) ([]byte, outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[string(key)]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, outcomeHit, nil
	}
	if fc, ok := c.calls[string(key)]; ok {
		c.mu.Unlock()
		<-fc.done
		return fc.val, outcomeCollapsed, fc.err
	}
	k := string(key)
	fc := &flightCall{done: make(chan struct{})}
	c.calls[k] = fc
	c.mu.Unlock()

	defer c.land(k, fc)
	fc.err = errSolvePanicked // stands unless solve returns
	fc.val, fc.err = solve()
	return fc.val, outcomeMiss, fc.err
}

// land ends the flight fc for key k: it wakes the collapsed waiters,
// forgets the flight, and caches a successful result.
func (c *solveCache) land(k string, fc *flightCall) {
	close(fc.done)
	c.mu.Lock()
	delete(c.calls, k)
	if fc.err == nil && c.cap > 0 {
		c.insert(k, fc.val)
	}
	c.mu.Unlock()
}

// insert adds key→val at the front, evicting from the back past
// capacity. Callers hold c.mu.
func (c *solveCache) insert(key string, val []byte) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
	}
}
