// Package machine mirrors the simulated machine, where every random
// draw must derive from internal/rng substreams: one legacy math/rand use
// and one constant-seeded stream, each pinning a rngseam finding, plus
// a deliberately dead suppression pinning the stale-allow report
// (golden.txt).
package machine

import (
	"math/rand"

	"fixture/internal/rng"
)

// shuffleSource builds a legacy math/rand source; even with an
// explicit seed it is outside the SeedAt substream scheme.
func shuffleSource(seed int64) rand.Source {
	return rand.NewSource(seed)
}

// fixedStream seeds an rng stream with a constant, which makes every
// replication identical.
func fixedStream() *rng.Stream {
	return rng.New(42)
}

// Mix is integer arithmetic: floateq finds nothing on the line below,
// so the allow is dead and Run reports it stale.
func Mix(a, b int) int {
	//lopc:allow floateq fixture: deliberately dead suppression pinning the stale report
	return a ^ b
}

var _ = shuffleSource
var _ = fixedStream
