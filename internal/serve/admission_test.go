package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/clock"
)

func newTestAdmission(workers, queueDepth int, queueWait time.Duration) (*admission, *clock.Fake, *metrics) {
	fake := clock.NewFake(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	met := newMetrics(fake.Now(), nil)
	return newAdmission(workers, queueDepth, queueWait, time.Millisecond, fake, met), fake, met
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedQueueFull: with the pool busy and the queue at
// capacity, the next request is shed immediately with 503.
func TestAdmissionShedQueueFull(t *testing.T) {
	a, _, met := newTestAdmission(1, 1, time.Minute)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	queued := make(chan error, 1)
	go func() {
		rel, err := a.acquire(context.Background(), nil)
		if rel != nil {
			defer rel()
		}
		queued <- err
	}()
	waitForCond(t, func() bool { return met.queueDepth.Value() == 1 })

	_, err = a.acquire(context.Background(), nil)
	shed, ok := err.(*shedError)
	if !ok {
		t.Fatalf("overflow acquire: %v, want *shedError", err)
	}
	if shed.status != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", shed.status)
	}
	if shed.retryAfter < 1 {
		t.Errorf("Retry-After = %d, want >= 1", shed.retryAfter)
	}
	if met.shedQueueFull.Value() != 1 {
		t.Errorf("shedQueueFull = %d, want 1", met.shedQueueFull.Value())
	}

	release() // hand the slot to the queued waiter
	if err := <-queued; err != nil {
		t.Errorf("queued acquire: %v", err)
	}
	if met.queueDepth.Value() != 0 {
		t.Errorf("queue depth = %d after settle, want 0", met.queueDepth.Value())
	}
}

// TestAdmissionShedQueueWait: a queued request is shed with 429 once
// the fake clock passes the queue-wait cap — no real time elapses.
func TestAdmissionShedQueueWait(t *testing.T) {
	a, fake, met := newTestAdmission(1, 4, 30*time.Second)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	queued := make(chan error, 1)
	go func() {
		_, err := a.acquire(context.Background(), nil)
		queued <- err
	}()
	waitForCond(t, func() bool { return met.queueDepth.Value() == 1 })

	fake.Advance(29 * time.Second)
	select {
	case err := <-queued:
		t.Fatalf("shed before the wait cap: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	fake.Advance(2 * time.Second)
	err = <-queued
	shed, ok := err.(*shedError)
	if !ok || shed.status != http.StatusTooManyRequests {
		t.Fatalf("queued acquire after wait cap: %v, want 429 shedError", err)
	}
	if met.shedTimeout.Value() != 1 {
		t.Errorf("shedTimeout = %d, want 1", met.shedTimeout.Value())
	}
}

// TestAdmissionShedDeadline: a queued request whose own context expires
// is shed with 429 and counted separately from queue-wait sheds.
func TestAdmissionShedDeadline(t *testing.T) {
	a, _, met := newTestAdmission(1, 4, time.Hour)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, nil)
		queued <- err
	}()
	waitForCond(t, func() bool { return met.queueDepth.Value() == 1 })
	cancel()
	err = <-queued
	shed, ok := err.(*shedError)
	if !ok || shed.status != http.StatusTooManyRequests {
		t.Fatalf("canceled acquire: %v, want 429 shedError", err)
	}
	if met.shedDeadline.Value() != 1 {
		t.Errorf("shedDeadline = %d, want 1", met.shedDeadline.Value())
	}
}

// TestShedUnderLoadHTTP drives shedding through the full HTTP stack on
// a fake clock: pool of one (held by the test), queue of one.
func TestShedUnderLoadHTTP(t *testing.T) {
	s, ts, fake := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, QueueWait: time.Minute, RequestTimeout: time.Hour,
	})
	release, err := s.adm.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	queuedResp := make(chan *http.Response, 1)
	go func() {
		resp, _ := postNoT(ts.URL+"/v1/alltoall", validAllToAll)
		queuedResp <- resp
	}()
	waitFor(t, func() bool { return s.met.queueDepth.Value() == 1 })

	// Queue full: the second concurrent request sheds with 503 now.
	resp, _ := post(t, ts.URL+"/v1/alltoall", `{"p":32,"w":777,"st":40,"so":200}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// The queued request sheds with 429 when fake time passes the cap.
	fake.Advance(2 * time.Minute)
	qr := <-queuedResp
	if qr == nil {
		t.Fatal("queued request failed at transport level")
	}
	if qr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request = %d, want 429", qr.StatusCode)
	}
	if qr.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// With the slot back, the pool admits again (cache must not have
	// memoized the shed request's params).
	release()
	resp, _ = post(t, ts.URL+"/v1/alltoall", validAllToAll)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed request = %d, want 200", resp.StatusCode)
	}
}

// TestRecommendWorkers sanity-checks the Eq. 6.8 sizing helper: the
// recommendation is a feasible allocation that grows with the client
// population.
func TestRecommendWorkers(t *testing.T) {
	if _, _, err := RecommendWorkers(1, 0, time.Millisecond); err == nil {
		t.Error("clients=1 accepted")
	}
	if _, _, err := RecommendWorkers(64, 0, 0); err == nil {
		t.Error("solve=0 accepted")
	}
	psStar, workers, err := RecommendWorkers(64, 0, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if workers < 1 || workers >= 64 {
		t.Errorf("workers = %d, want a feasible 1 <= Ps < P allocation", workers)
	}
	if psStar <= 0 {
		t.Errorf("Ps* = %v, want > 0", psStar)
	}
	// Saturating clients contend hard: the pool should be a large
	// fraction of the population, and more clients need more workers.
	_, more, err := RecommendWorkers(256, 0, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if more <= workers {
		t.Errorf("workers(256 clients) = %d not above workers(64) = %d", more, workers)
	}
	// Long think times relax the pool: same population, mostly idle.
	_, idle, err := RecommendWorkers(64, time.Second, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if idle >= workers {
		t.Errorf("workers(1s think) = %d not below workers(saturating) = %d", idle, workers)
	}
}
