package clock

import "sync"

// FakeMu exposes a Fake's mutex to the lock rows.
func FakeMu(f *Fake) *sync.Mutex { return &f.mu }
