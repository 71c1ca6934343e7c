//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. It
// changes allocation counts (sync.Pool drops items at random under it),
// so allocation guards skip themselves.
const raceEnabled = true
