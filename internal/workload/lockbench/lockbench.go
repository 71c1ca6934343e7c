// Package lockbench measures real Go runtime contention — sync.Mutex
// critical sections and lock-free CAS retry loops — so the lock and
// lock-free models of internal/core can be validated against actual
// hardware rather than only against the simulated machine.
//
// The harness is deliberately shaped like the model's workloads: each
// goroutine loops {work spin; contend; serialized spin}, where the
// spins are calibrated busy loops (Calibrate maps wall time to loop
// iterations). Work sequences are drawn from internal/rng substreams
// keyed by (Seed, thread), so the workload an experiment presents is a
// pure function of its configuration even though the measured timings
// are not: reproducibility lives in the plan, wall-clock noise in the
// measurement.
//
// Unlike every other workload package, lockbench reads the wall clock
// by design — it is the one place the repo touches non-simulated time,
// so it lies outside internal/lint's deterministic package set and its
// wall-clock reads carry audited clockseam allows.
package lockbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Calibration maps busy-loop iterations to wall time on this machine.
type Calibration struct {
	// SpinsPerNs is the measured busy-loop iteration rate.
	SpinsPerNs float64
}

// spin runs n iterations of a multiply-add loop and returns the
// accumulator; callers fold the result into their own sink so the
// compiler cannot elide the loop.
func spin(n uint64) uint64 {
	acc := uint64(1)
	for i := uint64(0); i < n; i++ {
		acc = acc*2862933555777941757 + 3037000493
	}
	return acc
}

// Calibrate times the spin loop until it has a stable rate estimate.
// It takes a few milliseconds.
func Calibrate() Calibration {
	var sink uint64
	n := uint64(1 << 16)
	for {
		//lopc:allow clockseam calibration measures real spin throughput; a fake clock would defeat it
		t0 := time.Now()
		sink += spin(n)
		//lopc:allow clockseam calibration measures real spin throughput; a fake clock would defeat it
		el := time.Since(t0)
		if el >= 2*time.Millisecond {
			_ = sink
			return Calibration{SpinsPerNs: float64(n) / float64(el.Nanoseconds())}
		}
		n *= 2
	}
}

// SpinsFor returns the iteration count approximating duration d.
func (c Calibration) SpinsFor(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(c.SpinsPerNs * float64(d.Nanoseconds()))
}

// Config parameterizes one measurement run.
type Config struct {
	// Threads is the number of contending goroutines.
	Threads int
	// Work is the mean non-contended work per operation; per-operation
	// amounts are exponential, drawn from the (Seed, thread) substream.
	Work time.Duration
	// Critical is the critical-section length (mutex driver) or the
	// retry-round length (CAS drivers): the contended spin. It is
	// deterministic, so the model's C² for it is 0.
	Critical time.Duration
	// OpsPerThread is the number of operations each goroutine performs.
	OpsPerThread int
	// Seed roots the per-thread work plans.
	Seed uint64
}

func (c Config) validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("lockbench: Threads = %d", c.Threads)
	case c.OpsPerThread < 1:
		return fmt.Errorf("lockbench: OpsPerThread = %d", c.OpsPerThread)
	case c.Work < 0 || c.Critical <= 0:
		return fmt.Errorf("lockbench: need Work >= 0 and Critical > 0, got %v, %v", c.Work, c.Critical)
	}
	return nil
}

// Measurement is the outcome of one run.
type Measurement struct {
	// Threads echoes the configured goroutine count.
	Threads int
	// Ops is the total number of completed operations.
	Ops int64
	// Elapsed is the wall time from releasing the goroutines to the
	// last one finishing.
	Elapsed time.Duration
	// X is the measured throughput in operations per nanosecond — the
	// model's time unit for real-runtime fits.
	X float64
	// Attempts is the mean number of CAS rounds per operation (exactly
	// 1 for the mutex driver).
	Attempts float64
}

// WorkPlan returns the spin counts thread performs, one per operation:
// exponential with mean meanSpins, drawn from the rng substream at
// (seed, thread). Two calls with equal arguments return identical
// plans on every platform — the reproducibility contract the
// determinism tests pin.
func WorkPlan(seed uint64, thread, ops int, meanSpins float64) []uint64 {
	r := rng.New(rng.SeedAt(seed, uint64(thread)))
	plan := make([]uint64, ops)
	for i := range plan {
		plan[i] = uint64(meanSpins * r.ExpFloat64())
	}
	return plan
}

// run starts cfg.Threads goroutines, each executing body(thread, plan)
// over its work plan after a common start barrier, and returns the
// wall time and summed per-thread attempt counts. body returns
// (attempts, sink) for its whole loop.
func run(cfg Config, cal Calibration, body func(thread int, plan []uint64) (int64, uint64)) Measurement {
	meanSpins := cal.SpinsPerNs * float64(cfg.Work.Nanoseconds())
	plans := make([][]uint64, cfg.Threads)
	for i := range plans {
		plans[i] = WorkPlan(cfg.Seed, i, cfg.OpsPerThread, meanSpins)
	}
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})
	attempts := make([]int64, cfg.Threads)
	sinks := make([]uint64, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			attempts[i], sinks[i] = body(i, plans[i])
		}(i)
	}
	ready.Wait()
	//lopc:allow clockseam the benchmark times real hardware contention; wall time is the measurand
	t0 := time.Now()
	close(start)
	wg.Wait()
	//lopc:allow clockseam the benchmark times real hardware contention; wall time is the measurand
	elapsed := time.Since(t0)
	var totalAtt int64
	var sink uint64
	for i := range attempts {
		totalAtt += attempts[i]
		sink += sinks[i]
	}
	runtime.KeepAlive(sink)
	ops := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	return Measurement{
		Threads:  cfg.Threads,
		Ops:      ops,
		Elapsed:  elapsed,
		X:        float64(ops) / float64(elapsed.Nanoseconds()),
		Attempts: float64(totalAtt) / float64(ops),
	}
}

// RunMutex measures a sync.Mutex critical-section loop: every
// operation spins for its planned work, acquires the mutex, spins for
// Critical, and releases. This is the coarse-grained lock scenario:
// the mutex queue is the model's server queue.
func RunMutex(cfg Config, cal Calibration) (Measurement, error) {
	if err := cfg.validate(); err != nil {
		return Measurement{}, err
	}
	crit := cal.SpinsFor(cfg.Critical)
	var mu sync.Mutex
	m := run(cfg, cal, func(_ int, plan []uint64) (int64, uint64) {
		var acc uint64
		for _, w := range plan {
			acc += spin(w)
			mu.Lock()
			acc += spin(crit)
			mu.Unlock()
		}
		return int64(len(plan)), acc
	})
	return m, nil
}

// RunCAS measures a lock-free counter increment: every operation spins
// for its planned work, then retries {read; spin Critical; CAS} until
// the CAS wins. A retry round loses exactly when another goroutine
// commits inside its read-to-CAS window — the conflict semantics of
// the lock-free model, on real hardware.
func RunCAS(cfg Config, cal Calibration) (Measurement, error) {
	if err := cfg.validate(); err != nil {
		return Measurement{}, err
	}
	round := cal.SpinsFor(cfg.Critical)
	var ctr atomic.Uint64
	m := run(cfg, cal, func(_ int, plan []uint64) (int64, uint64) {
		var acc uint64
		var att int64
		for _, w := range plan {
			acc += spin(w)
			for {
				att++
				v := ctr.Load()
				acc += spin(round)
				if ctr.CompareAndSwap(v, v+1) {
					break
				}
			}
		}
		return att, acc
	})
	return m, nil
}

// tnode is a Treiber stack node. Nodes are freshly allocated per push;
// Go's garbage collector rules out the ABA hazard node reuse would
// introduce.
type tnode struct {
	next *tnode
	val  uint64
}

// RunTreiber measures a Treiber stack: every operation spins for its
// planned work, pops a node, and pushes a fresh one, each with a
// CAS retry loop whose round includes the Critical spin. The stack is
// pre-populated with one node per thread so pops never observe an
// empty stack.
func RunTreiber(cfg Config, cal Calibration) (Measurement, error) {
	if err := cfg.validate(); err != nil {
		return Measurement{}, err
	}
	round := cal.SpinsFor(cfg.Critical)
	var head atomic.Pointer[tnode]
	for i := 0; i < cfg.Threads; i++ {
		head.Store(&tnode{next: head.Load(), val: uint64(i)})
	}
	m := run(cfg, cal, func(_ int, plan []uint64) (int64, uint64) {
		var acc uint64
		var att int64
		for _, w := range plan {
			acc += spin(w)
			var popped *tnode
			for {
				att++
				h := head.Load()
				acc += spin(round / 2)
				if h == nil {
					// Impossible by construction (pushes balance pops),
					// but never spin on a nil head.
					continue
				}
				if head.CompareAndSwap(h, h.next) {
					popped = h
					break
				}
			}
			n := &tnode{val: popped.val + 1}
			for {
				att++
				h := head.Load()
				n.next = h
				acc += spin(round / 2)
				if head.CompareAndSwap(h, n) {
					break
				}
			}
		}
		return att, acc
	})
	return m, nil
}
