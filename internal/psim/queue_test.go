package psim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// queueOps decodes a fuzz input into a push/pop sequence: a byte with
// the high bit set pops; any other byte pushes an event whose time
// takes one of five values (so most comparisons are exact time ties)
// and whose Dst and Src take one of four. Seq counts per source, so
// (Src, Seq) names each event uniquely, as Ctx.Send guarantees, while
// Dst, Src and Seq each collide across events.
func queueOps(data []byte, push func(*Event), pop func()) {
	var seq [4]uint64
	for i, b := range data {
		if b&0x80 != 0 {
			pop()
			continue
		}
		src := int32(b>>2) & 3
		ev := Event{
			Time: 0.5 * float64(b%5),
			Src:  src,
			Dst:  int32(b>>4) & 3,
			Kind: int32(i),
			Seq:  seq[src],
			Msg:  Msg{U0: uint64(i), F0: float64(b)},
		}
		seq[src]++
		push(&ev)
	}
}

// FuzzEventQueue checks the sequential core's keyed queue against a
// reference: every pop returns the least pending event by eventLess,
// payload intact, and head() shows that event before the pop. The
// queue is drained at the end, so the tail of every input is checked
// as one sorted run.
func FuzzEventQueue(f *testing.F) {
	ties := make([]byte, 48)
	for i := range ties {
		ties[i] = byte(20 * (i % 7)) // time 0 throughout; Dst and Src vary
	}
	f.Add(ties)
	reuse := make([]byte, 0, 96)
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			reuse = append(reuse, byte(7*i+round)&0x7f)
		}
		for i := 0; i < 16; i++ {
			reuse = append(reuse, 0x80)
		}
	}
	f.Add(reuse)
	f.Add([]byte{3, 1, 0x80, 2, 9, 0x81, 0x82, 17, 4, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q keyQueue
		var ref []Event
		popOne := func() {
			if len(ref) == 0 {
				if len(q.keys) != 0 || q.head() != nil {
					t.Fatalf("queue holds %d events, reference none", len(q.keys))
				}
				return
			}
			sort.Slice(ref, func(a, b int) bool { return eventLess(&ref[a], &ref[b]) })
			want := ref[0]
			ref = ref[1:]
			if h := q.head(); h == nil || *h != want {
				t.Fatalf("head %+v, want %+v", h, want)
			}
			if got := *q.pop(); got != want {
				t.Fatalf("pop %+v, want %+v", got, want)
			}
			if len(q.keys) != len(ref) {
				t.Fatalf("queue holds %d events, reference %d", len(q.keys), len(ref))
			}
		}
		queueOps(data, func(ev *Event) {
			q.push(ev)
			ref = append(ref, *ev)
		}, popOne)
		for len(ref) > 0 {
			popOne()
		}
		popOne()
		if len(q.slab) != len(q.free) {
			t.Fatalf("drained queue: %d slab slots, %d free", len(q.slab), len(q.free))
		}
	})
}

// BenchmarkEventQueue times one pop plus one push at a steady number
// of pending events: 4 (a parallel core's per-LP heap), 28 (the global
// queue at the Fig 5-2 configurations, P = 32) and 1024. It runs the
// sequential core's keyed queue and the parallel cores' per-LP heap on
// the same event stream; BENCH_psim.json records both.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{4, 28, 1024} {
		b.Run(fmt.Sprintf("keyed/n%d", n), func(b *testing.B) {
			var q keyQueue
			benchQueue(b, n, q.push, func() float64 { return q.pop().Time })
		})
		b.Run(fmt.Sprintf("heap/n%d", n), func(b *testing.B) {
			var h evHeap
			benchQueue(b, n, h.push, func() float64 { ev := h.pop(); return ev.Time })
		})
	}
}

// benchQueue fills a queue with n events and then, per iteration, pops
// the least and pushes one later by a random delay, keeping n pending.
// Times are whole numbers, so some comparisons tie.
func benchQueue(b *testing.B, n int, push func(*Event), pop func() float64) {
	r := rng.New(1)
	ev := Event{Msg: Msg{F0: 1}}
	next := func(now float64) {
		ev.Time = now + float64(r.Intn(4*n))
		ev.Dst = int32(r.Intn(n))
		ev.Seq++
		push(&ev)
	}
	for i := 0; i < n; i++ {
		next(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next(pop())
	}
}
