//go:build !race

package allocguard

// Race reports whether the race detector is compiled in; see race.go.
const Race = false
