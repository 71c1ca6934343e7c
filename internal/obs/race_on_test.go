//go:build race

package obs_test

// raceEnabled reports whether the race detector is compiled in. It
// changes allocation counts, so allocation guards skip themselves.
const raceEnabled = true
