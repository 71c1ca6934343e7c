// Package detflow exercises the interprocedural determinism-taint
// analyzer: nondeterministic sources flowing into registered sinks and
// exported results, across call and closure boundaries, with sort
// sanitization and //lopc:allow suppression.
package detflow

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"
)

// now is the taint source one call away from every sink below: the
// engine must carry wall-clock taint through the summary.
func now() int64 {
	return time.Now().UnixNano()
}

// describe sends an upstream wall-clock read into an error message.
func describe() error {
	t := now()
	return fmt.Errorf("failed at %d", t) // want "flows into an error message"
}

// envTag routes an environment read through a closure into formatted
// output.
func envTag() string {
	get := func() string { return os.Getenv("TAG") }
	v := get()
	return fmt.Sprintf("tag=%s", v) // want "flows into formatted output"
}

// Stamp is an exported result carrying wall-clock taint: under the
// deterministic-package contract, a finding at the declaration.
func Stamp() int64 { // want "exported detflow.Stamp returns a value derived from wall-clock"
	return now() + 1
}

// SortedKeys is the sanitized negative: the keys are accumulated in
// map order but sorted before they reach the sink, so both the sink
// and the exported result are clean.
func SortedKeys(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%v", keys)
}

// Elapsed returns a wall-clock difference.
func Elapsed() time.Duration { // want "exported detflow.Elapsed returns a value derived from wall-clock time.Since"
	start := time.Now()
	return time.Since(start)
}

// Jitter returns a draw from the global math/rand source.
func Jitter() float64 { // want "exported detflow.Jitter returns a value derived from global math/rand rand.Float64"
	return rand.Float64()
}

// SumValues accumulates floats in map order: float addition does not
// commute bit for bit, so the sum depends on the iteration order.
func SumValues(m map[string]float64) float64 { // want "exported detflow.SumValues returns a value derived from map-iteration-order"
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}

// First returns a constant chosen by an arbitrary map key: only the
// branch condition carries the iteration order.
func First(m map[string]int) int { // want "exported detflow.First returns a value derived from map-iteration-order"
	first := ""
	for k := range m {
		first = k
		break
	}
	if first == "a" {
		return 1
	}
	return 0
}

// pick reaches an error message through a branch on an arbitrary map
// key; the message itself is a constant.
func pick(m map[string]int) error {
	first := ""
	for k := range m {
		first = k
		break
	}
	switch first {
	case "a":
		return fmt.Errorf("picked a") // want "value derived from map-iteration-order a range over a map"
	}
	return nil
}

// Keys is the deterministic negative of First's shape: the keys are
// appended in map order, then sorted.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Count increments inside a map range: the count is the same in any
// order, and a branch on it is clean.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	if n > 1 {
		return 2
	}
	return n
}

// Locals branches on loop-local values only, which is clean.
func Locals(m map[string]float64) bool {
	for _, v := range m {
		if v > 1 {
			return true
		}
	}
	return false
}

// Echo is the pure negative: input-derived values are not findings.
func Echo(name string) error {
	return fmt.Errorf("unknown name %q", name)
}

// jitterLog is the suppressed positive: the global-rand flow into
// formatted output is acknowledged with a justified allow.
func jitterLog() string {
	j := rand.Int63()
	//lopc:allow detflow fixture: suppressed-case coverage for the harness
	return fmt.Sprintf("jitter=%d", j)
}

var (
	_ = describe
	_ = envTag
	_ = jitterLog
	_ = pick
)
