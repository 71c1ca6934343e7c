package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestCacheHitAndEvict(t *testing.T) {
	c := newSolveCache(2)
	solves := 0
	solve := func(v string) func() ([]byte, error) {
		return func() ([]byte, error) { solves++; return []byte(v), nil }
	}
	if _, o, _ := c.get([]byte("a"), solve("A")); o != outcomeMiss {
		t.Fatalf("first a: %v, want miss", o)
	}
	if v, o, _ := c.get([]byte("a"), solve("wrong")); o != outcomeHit || string(v) != "A" {
		t.Fatalf("second a: %q/%v, want A/hit", v, o)
	}
	_, _, _ = c.get([]byte("b"), solve("B"))
	_, _, _ = c.get([]byte("a"), solve("wrong")) // refresh a: b is now LRU
	_, _, _ = c.get([]byte("c"), solve("C"))     // evicts b; order c, a
	if _, o, _ := c.get([]byte("b"), solve("B2")); o != outcomeMiss {
		t.Errorf("evicted b: %v, want miss", o)
	}
	// Re-inserting b evicted a (the LRU after c's insert); c survives.
	if _, o, _ := c.get([]byte("c"), solve("wrong")); o != outcomeHit {
		t.Errorf("c evicted early? outcome %v, want hit", o)
	}
	if _, o, _ := c.get([]byte("a"), solve("A2")); o != outcomeMiss {
		t.Errorf("evicted a: %v, want miss", o)
	}
	if solves != 5 { // A, B, C, B2, A2
		t.Errorf("%d solves, want 5", solves)
	}
	if c.len() != 2 {
		t.Errorf("cache holds %d entries, capacity 2", c.len())
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newSolveCache(8)
	calls := 0
	fail := func() ([]byte, error) { calls++; return nil, errors.New("boom") }
	if _, _, err := c.get([]byte("k"), fail); err == nil {
		t.Fatal("error not propagated")
	}
	if _, o, err := c.get([]byte("k"), fail); err == nil || o != outcomeMiss {
		t.Fatalf("second call: outcome %v err %v, want miss with error", o, err)
	}
	if calls != 2 {
		t.Errorf("%d solve calls, want 2 (errors must not be memoized)", calls)
	}
}

// TestCacheDisabledKeepsSingleflight: capacity <= -1 turns off
// memoization but concurrent identical requests still collapse.
func TestCacheDisabledKeepsSingleflight(t *testing.T) {
	c := newSolveCache(-1)
	if _, o, _ := c.get([]byte("k"), func() ([]byte, error) { return []byte("v"), nil }); o != outcomeMiss {
		t.Fatalf("outcome %v, want miss", o)
	}
	if _, o, _ := c.get([]byte("k"), func() ([]byte, error) { return []byte("v"), nil }); o != outcomeMiss {
		t.Errorf("disabled cache served a hit (%v)", o)
	}
	if c.len() != 0 {
		t.Errorf("disabled cache stored %d entries", c.len())
	}
}

// TestCacheSingleflightCollapse: concurrent requests for one key run
// the solver exactly once. The leader blocks inside its solve until
// every waiter goroutine has entered get, so waiters either collapse
// onto the leader's flight or (if descheduled across the leader's
// insert) hit the fresh entry — never a second solve.
func TestCacheSingleflightCollapse(t *testing.T) {
	c := newSolveCache(8)
	const waiters = 16
	var solves int
	started := make(chan struct{})
	block := make(chan struct{})
	slowSolve := func() ([]byte, error) {
		solves++ // no lock: collapse means only one goroutine gets here
		close(started)
		<-block
		return []byte("slow"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]outcome, waiters)
	vals := make([][]byte, waiters)
	leaderDone := make(chan error, 1)
	go func() {
		v, o, err := c.get([]byte("k"), slowSolve)
		outcomes[0], vals[0] = o, v
		leaderDone <- err
	}()
	<-started // the leader owns the flight

	var entered sync.WaitGroup
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		entered.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			v, o, err := c.get([]byte("k"), func() ([]byte, error) {
				return nil, errors.New("waiter ran its own solve")
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			outcomes[i], vals[i] = o, v
		}(i)
	}
	entered.Wait() // every waiter is running before the leader may finish
	close(block)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	wg.Wait()

	if solves != 1 {
		t.Errorf("%d solves, want 1", solves)
	}
	if outcomes[0] != outcomeMiss {
		t.Errorf("leader outcome %v, want miss", outcomes[0])
	}
	collapsed := 0
	for i := 1; i < waiters; i++ {
		switch outcomes[i] {
		case outcomeCollapsed:
			collapsed++
		case outcomeHit:
		default:
			t.Errorf("waiter %d outcome %v, want collapsed or hit", i, outcomes[i])
		}
		if string(vals[i]) != "slow" {
			t.Errorf("waiter %d value %q", i, vals[i])
		}
	}
	if collapsed == 0 {
		t.Error("no waiter collapsed onto the in-flight solve")
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct {
		a, b float64
		same bool
	}{
		{1000, 1000.0000000001, true},
		{1000, 1001, false},
		{0, 0, true},
		{1e-300, 1e-300 * (1 + 1e-12), true},
		{1e300, 1e300 * (1 + 1e-12), true},
		{-5, 5, false},
		{0.1, 0.1000000000001, true},
		// Below ~1e-300 the decimal scale overflows: each value keeps
		// its own bits instead of quantizing to NaN.
		{1e-310, 7e-305, false},
		{5e-324, 5e-324, true},
	}
	for _, c := range cases {
		got := quantize(c.a) == quantize(c.b)
		if got != c.same {
			t.Errorf("quantize(%v) == quantize(%v): %v, want %v", c.a, c.b, got, c.same)
		}
	}
}

// TestKeyUniqueness: distinct parameter tuples — including flag and
// priority changes — must never collide, and the keys of the different
// endpoints live in disjoint namespaces.
func TestKeyUniqueness(t *testing.T) {
	keys := map[string]string{}
	add := func(name, key string) {
		if prev, dup := keys[key]; dup {
			t.Errorf("key collision between %s and %s: %q", prev, name, key)
		}
		keys[key] = name
	}
	p := core.Params{P: 32, W: 1000, St: 40, So: 200}
	add("base", routeKey("/v1/alltoall", &allToAllParams{Params: p, N: 0}))
	add("n=100", routeKey("/v1/alltoall", &allToAllParams{Params: p, N: 100}))
	pp := p
	pp.ProtocolProcessor = true
	add("protocol processor", routeKey("/v1/alltoall", &allToAllParams{Params: pp, N: 0}))
	ps := p
	ps.Priority = core.ShadowServer
	add("priority", routeKey("/v1/alltoall", &allToAllParams{Params: ps, N: 0}))
	pw := p
	pw.W++
	add("w+1", routeKey("/v1/alltoall", &allToAllParams{Params: pw, N: 0}))

	ptiny := p
	ptiny.W = 1e-310
	add("w=1e-310", routeKey("/v1/alltoall", &allToAllParams{Params: ptiny, N: 0}))
	ptiny.W = 7e-305
	add("w=7e-305", routeKey("/v1/alltoall", &allToAllParams{Params: ptiny, N: 0}))

	cs := core.ClientServerParams{P: 32, Ps: 8, W: 1000, St: 40, So: 200}
	add("workpile", routeKey("/v1/workpile", &cs))
	add("bounds", routeKey("/v1/bounds", &cs))
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := newSolveCache(1024)
	_, _, _ = c.get([]byte("k"), func() ([]byte, error) { return []byte("v"), nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = c.get([]byte("k"), func() ([]byte, error) {
			b.Fatal("hit path ran the solver")
			return nil, nil
		})
	}
}

// TestCachePanicReleasesFlight: a panicking solve re-panics in the
// caller that ran it, hands a collapsed waiter an error instead of a
// nil body, and leaves the key usable: the next get solves afresh.
func TestCachePanicReleasesFlight(t *testing.T) {
	c := newSolveCache(8)
	started := make(chan struct{})
	block := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		_, _, _ = c.get([]byte("k"), func() ([]byte, error) {
			close(started)
			<-block
			panic("boom")
		})
	}()
	<-started // the leader owns the flight

	type result struct {
		val []byte
		o   outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, o, err := c.get([]byte("k"), func() ([]byte, error) {
			return nil, errors.New("waiter ran its own solve")
		})
		waiter <- result{v, o, err}
	}()
	close(block)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the solve's panic", p)
	}
	// The waiter either collapsed onto the panicking flight or, if it
	// arrived after the release, ran its own failing solve; both are
	// errors with no body.
	select {
	case r := <-waiter:
		if r.err == nil || r.val != nil {
			t.Errorf("waiter got %q/%v, want an error and no body", r.val, r.err)
		}
		if r.o == outcomeCollapsed && !errors.Is(r.err, errSolvePanicked) {
			t.Errorf("collapsed waiter error %v, want errSolvePanicked", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the panicked flight")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, o, err := c.get([]byte("k"), func() ([]byte, error) { return []byte("v"), nil })
		if err != nil || o != outcomeMiss || string(v) != "v" {
			t.Errorf("get after the panic: %q/%v/%v, want v/miss/nil", v, o, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("get after the panic blocked on the released key")
	}
	if v, o, _ := c.get([]byte("k"), nil); o != outcomeHit || string(v) != "v" {
		t.Errorf("third get: %q/%v, want v/hit", v, o)
	}
}
