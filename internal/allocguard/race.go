//go:build race

package allocguard

// Race reports whether the race detector is compiled in. It changes
// allocation counts (sync.Pool drops items at random under it), so
// allocation guards skip themselves.
const Race = true
