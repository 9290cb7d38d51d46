// Package sim stands in for the event engine: the call-graph tests stop
// the walk at its boundary, so Post is reached but not followed.
package sim

var queue []uint64

func Post(addr uint64) {
	queue = append(queue, addr)
}
