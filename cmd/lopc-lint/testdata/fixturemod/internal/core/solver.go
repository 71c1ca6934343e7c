// Package core mirrors a deterministic solver package, violating the
// package-scoped checks: it reads the wall clock, which clockseam
// flags. Whether its results are pure functions of their inputs is
// checked at run time, not by the suite.
package core

import "time"

// Seed reads the wall clock. The line numbers above are kept so the
// finding stays on the line the goldens pin.
func Seed() int64 {
	return time.Now().UnixNano()
}
