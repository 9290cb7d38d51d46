// Package util is the cross-package helper that hides nondeterminism
// sources from syntactic per-package analysis: it is not a simulation
// package, so simdeterminism never looks at it.
package util

import "time"

// Stamp hides a wall-clock read behind an innocent helper.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Wrap adds one more hop on the way to the clock.
func Wrap() int64 { return Stamp() }

// Keys leaks map-iteration order through its return value.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
