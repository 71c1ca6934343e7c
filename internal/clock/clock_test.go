package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSystemTracksWallClock(t *testing.T) {
	before := time.Now()
	got := System.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("System.Now() = %v, want within [%v, %v]", got, before, after)
	}
}

func TestFakeAdvance(t *testing.T) {
	origin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	f := NewFake(origin)
	if got := f.Now(); !got.Equal(origin) {
		t.Fatalf("Now() = %v, want %v", got, origin)
	}
	f.Advance(90 * time.Second)
	if got, want := f.Now(), origin.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("after Advance, Now() = %v, want %v", got, want)
	}
	f.Set(origin)
	if got := f.Now(); !got.Equal(origin) {
		t.Fatalf("after Set, Now() = %v, want %v", got, origin)
	}
}

func TestFakeAfter(t *testing.T) {
	origin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	f := NewFake(origin)
	ch := f.After(time.Minute)
	select {
	case got := <-ch:
		t.Fatalf("After fired at %v before Advance", got)
	default:
	}
	if n := f.Pending(); n != 1 {
		t.Errorf("Pending = %d with one timer armed, want 1", n)
	}
	f.Advance(30 * time.Second)
	select {
	case got := <-ch:
		t.Fatalf("After fired at %v before its deadline", got)
	default:
	}
	f.Advance(30 * time.Second)
	select {
	case got := <-ch:
		if want := origin.Add(time.Minute); !got.Equal(want) {
			t.Errorf("After delivered %v, want %v", got, want)
		}
	default:
		t.Fatal("After did not fire once the deadline passed")
	}
	if n := f.Pending(); n != 0 {
		t.Errorf("Pending = %d after the timer fired, want 0", n)
	}
}

func TestFakeAfterImmediate(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	select {
	case got := <-f.After(0):
		if want := time.Unix(100, 0); !got.Equal(want) {
			t.Errorf("After(0) delivered %v, want %v", got, want)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestFakeAfterSet(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	ch := f.After(time.Hour)
	f.Set(time.Unix(7200, 0))
	select {
	case <-ch:
	default:
		t.Fatal("After did not fire when Set jumped past the deadline")
	}
}

func TestSystemAfter(t *testing.T) {
	select {
	case <-System.After(0):
	case <-time.After(5 * time.Second):
		t.Fatal("System.After(0) did not fire")
	}
}

func TestFakeConcurrentAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got, want := f.Now(), time.Unix(8, 0); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}
