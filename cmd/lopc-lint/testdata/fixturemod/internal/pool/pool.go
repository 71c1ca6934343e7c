// Package pool is lockbalance's fixture (Bump). Its other functions
// leak, race or double-close: bugs the race tier and goroutine-count
// tests find at run time, so the golden pins that lint reports none.
package pool

import "sync"

// Leak launches a goroutine with no join or cancellation mechanism.
func Leak(job func()) {
	go func() {
		job()
	}()
}

// Gather performs the Add inside the goroutine it accounts for, so
// Wait can return before any Add runs.
func Gather(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		go func(run func()) {
			wg.Add(1)
			defer wg.Done()
			run()
		}(j)
	}
	wg.Wait()
}

// Tally accumulates into a captured variable from every iteration's
// goroutine without synchronization.
func Tally(vals []int) int {
	var wg sync.WaitGroup
	total := 0
	for _, v := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += v
		}()
	}
	wg.Wait()
	return total
}

// Counter holds a lock across an early return.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Bump forgets the unlock on the limit-reached path.
func (c *Counter) Bump(limit int) bool {
	c.mu.Lock()
	if c.n >= limit {
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// Fan closes its output channel twice.
func Fan(vals []int) <-chan int {
	ch := make(chan int, len(vals))
	for _, v := range vals {
		ch <- v
	}
	close(ch)
	close(ch)
	return ch
}
