// Package tally is a helper the vault reaches through a plain static
// call.
package tally

var counts = map[uint64]int{}

func Bump(addr uint64) {
	counts[addr]++
}
