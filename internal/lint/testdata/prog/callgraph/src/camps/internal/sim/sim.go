// Package sim stands in for the event engine: Post is a call-graph leaf
// that the walk from vault reaches.
package sim

var queue []uint64

func Post(addr uint64) {
	queue = append(queue, addr)
}
