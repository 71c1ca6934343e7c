// Package stale exercises stale-suppression detection: one allow
// suppresses nothing (dead), one suppresses a real finding (live).
package stale

import "time"

// Scaled carries a dead suppression: the comparison below is integer,
// so floateq finds nothing and the allow is stale.
func Scaled(n int) bool {
	//lopc:allow floateq fixture: deliberately dead suppression
	return n*2 == 4
}

// Tick carries a live suppression: clockseam flags the wall-clock read
// and the allow absorbs it.
func Tick() int64 {
	//lopc:allow clockseam fixture: deliberately suppressed wall-clock read
	return time.Now().UnixNano()
}
