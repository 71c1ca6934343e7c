package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

const validLock = `{"threads":8,"w":800,"st":20,"so":100,"c2":1}`
const validLockFree = `{"threads":8,"w":400,"st":5,"so":60,"c2":1}`

// TestLockHandlerTable drives /v1/lock and /v1/lockfree through their
// request-shape, validation, and infeasibility failure modes.
func TestLockHandlerTable(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		wantInBody       string
	}{
		{"lock ok", "/v1/lock", validLock, 200, `"x":`},
		{"lock bounds in body", "/v1/lock", validLock, 200, `"serial_bound":`},
		{"lock single thread", "/v1/lock", `{"threads":1,"w":800,"st":20,"so":100}`, 200, `"wait":0`},
		{"lock bad JSON", "/v1/lock", `{"threads":8,`, 400, "decoding request"},
		{"lock unknown field", "/v1/lock", `{"threads":8,"so":100,"p":32}`, 400, "unknown field"},
		{"lock trailing garbage", "/v1/lock", validLock + ` {"again":true}`, 400, "trailing data"},
		{"lock zero threads", "/v1/lock", `{"threads":0,"w":800,"so":100}`, 400, "lock model needs Threads"},
		{"lock zero So", "/v1/lock", `{"threads":8,"w":800}`, 400, "positive time"},
		{"lock negative W", "/v1/lock", `{"threads":8,"w":-1,"so":100}`, 400, "negative parameter"},
		{"lockfree ok", "/v1/lockfree", validLockFree, 200, `"attempts":`},
		{"lockfree conflict in body", "/v1/lockfree", validLockFree, 200, `"conflict":`},
		{"lockfree st=0 omits serial bound", "/v1/lockfree", `{"threads":8,"w":400,"so":60}`, 200, `"conflict_free_bound":`},
		{"lockfree bad JSON", "/v1/lockfree", `{"threads":`, 400, "decoding request"},
		{"lockfree unknown field", "/v1/lockfree", `{"threads":8,"so":60,"ps":1}`, 400, "unknown field"},
		{"lockfree zero threads", "/v1/lockfree", `{"threads":0,"so":60}`, 400, "lock-free model needs Threads"},
		{"lockfree zero So", "/v1/lockfree", `{"threads":8,"w":400}`, 400, "positive time"},
		// The model has a fixed point at conflict ≈ 0.995, below the
		// retry-storm guard (core.TestLockFreeRetryStormGuard bisects it).
		{"lockfree near storm converges", "/v1/lockfree", `{"threads":1024,"w":0,"st":0.0001,"so":100}`, 200, `"conflict":0.99484`},
		// No fixed point: the commit point saturates wherever F is defined.
		{"lockfree commit saturated", "/v1/lockfree", `{"threads":250,"w":1771,"st":17.1,"so":12.1,"c2":2.65}`, 422, "commit serialization utilization"},
		// No fixed point below the guard: F(R) < R already at the storm edge.
		{"lockfree retry storm", "/v1/lockfree", `{"threads":10000,"w":0,"so":1}`, 422, "retry storm"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, c.status, body)
			}
			if !strings.Contains(body, c.wantInBody) {
				t.Errorf("body %q missing %q", body, c.wantInBody)
			}
		})
	}
	// The st=0 response must genuinely omit the unbounded serial bound.
	_, body := post(t, ts.URL+"/v1/lockfree", `{"threads":4,"w":400,"so":60}`)
	if strings.Contains(body, "serial_bound") {
		t.Errorf("st=0 lock-free response carries a serial bound: %s", body)
	}
}

// TestLockCacheQuantization: both new endpoints share the solve cache
// with sub-resolution folding and real-change separation.
func TestLockCacheQuantization(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, c := range []struct {
		path, base, subRes, changed string
	}{
		{"/v1/lock", validLock, `{"threads":8,"w":800.0000000001,"st":20,"so":100,"c2":1}`, `{"threads":8,"w":801,"st":20,"so":100,"c2":1}`},
		{"/v1/lockfree", validLockFree, `{"threads":8,"w":400.0000000001,"st":5,"so":60,"c2":1}`, `{"threads":8,"w":401,"st":5,"so":60,"c2":1}`},
	} {
		cold, _ := post(t, ts.URL+c.path, c.base)
		if got := cold.Header.Get("X-Lopc-Cache"); got != "miss" {
			t.Errorf("%s cold solve cache = %q, want miss", c.path, got)
		}
		hit, _ := post(t, ts.URL+c.path, c.subRes)
		if got := hit.Header.Get("X-Lopc-Cache"); got != "hit" {
			t.Errorf("%s sub-resolution change cache = %q, want hit", c.path, got)
		}
		miss, _ := post(t, ts.URL+c.path, c.changed)
		if got := miss.Header.Get("X-Lopc-Cache"); got != "miss" {
			t.Errorf("%s real change cache = %q, want miss", c.path, got)
		}
	}
}

// TestLockCacheHitBytesIdentical: hits replay the cold bytes exactly on
// both endpoints.
func TestLockCacheHitBytesIdentical(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/lock", validLock},
		{"/v1/lockfree", validLockFree},
	} {
		_, cold := post(t, ts.URL+c.path, c.body)
		_, hit := post(t, ts.URL+c.path, c.body)
		if cold != hit {
			t.Errorf("%s cache hit bytes differ:\ncold: %s\nhit:  %s", c.path, cold, hit)
		}
	}
}

// TestLockSingleflight: concurrent identical requests to the new
// endpoints run exactly one solve; every other caller is a hit or a
// collapse onto the in-flight one.
func TestLockSingleflight(t *testing.T) {
	for _, path := range []string{"/v1/lock", "/v1/lockfree"} {
		t.Run(path, func(t *testing.T) {
			s, ts, _ := newTestServer(t, Config{})
			body := validLock
			if path == "/v1/lockfree" {
				body = validLockFree
			}
			const clients = 12
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, rbody := postNoT(ts.URL+path, body)
					if resp.StatusCode != 200 {
						t.Errorf("status %d: %s", resp.StatusCode, rbody)
					}
				}()
			}
			wg.Wait()
			misses := s.met.cacheMisses.Value()
			if misses != 1 {
				t.Errorf("%d cache misses across %d identical requests, want 1 (singleflight)", misses, clients)
			}
			if total := misses + s.met.cacheHits.Value() + s.met.cacheCollapsed.Value(); total != clients {
				t.Errorf("outcome counts sum to %d, want %d", total, clients)
			}
		})
	}
}

// TestLockKeyUniqueness: the new endpoints' keys never collide with
// each other or across namespaces, even at identical numerics.
func TestLockKeyUniqueness(t *testing.T) {
	keys := map[string]string{}
	add := func(name, key string) {
		if prev, dup := keys[key]; dup {
			t.Errorf("key collision between %s and %s: %q", prev, name, key)
		}
		keys[key] = name
	}
	lp := core.LockParams{Threads: 8, W: 800, St: 20, So: 100, C2: 1}
	add("lock", routeKey("/v1/lock", &lp))
	lp2 := lp
	lp2.Threads = 9
	add("lock threads+1", routeKey("/v1/lock", &lp2))
	lp3 := lp
	lp3.W++
	add("lock w+1", routeKey("/v1/lock", &lp3))
	fp := core.LockFreeParams{Threads: 8, W: 800, St: 20, So: 100, C2: 1}
	add("lockfree same numerics", routeKey("/v1/lockfree", &fp))
	cs := core.ClientServerParams{P: 8, Ps: 1, W: 800, St: 20, So: 100, C2: 1}
	add("workpile", routeKey("/v1/workpile", &cs))
}
