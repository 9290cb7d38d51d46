package prefetch

import "math/bits"

// keyIndex is a fixed-size open-addressed map from non-negative int64 keys
// to int64 values, the lookup structure behind the bounded CT and sisb
// tables. Keys hash with mix64 and probe linearly; delete shifts later
// entries of the probe run back into the hole, so no tombstones build up
// and every resident key stays reachable from its home cell. The index
// never grows: its owner keeps at most the capacity it was built for
// resident, which holds it at most half full.
type keyIndex struct {
	cells []keyCell // key -1 marks an empty cell
	mask  int
}

type keyCell struct{ key, val int64 }

// newKeyIndex returns an empty index for up to capacity resident keys,
// with the next power of two at least twice the capacity as its length.
func newKeyIndex(capacity int) keyIndex {
	size := 1 << bits.Len(uint(2*capacity-1))
	x := keyIndex{cells: make([]keyCell, size), mask: size - 1}
	for i := range x.cells {
		x.cells[i].key = -1
	}
	return x
}

func (x *keyIndex) home(key int64) int { return int(mix64(uint64(key))) & x.mask }

// probe returns the cell holding key, or the empty cell that ends key's
// probe run.
func (x *keyIndex) probe(key int64) int {
	for pos := x.home(key); ; pos = (pos + 1) & x.mask {
		if k := x.cells[pos].key; k == key || k < 0 {
			return pos
		}
	}
}

// get returns key's value and whether key is resident. A negative key is
// never resident.
func (x *keyIndex) get(key int64) (int64, bool) {
	if key < 0 {
		return 0, false
	}
	c := &x.cells[x.probe(key)]
	return c.val, c.key == key
}

// put sets the value of non-negative key, adding key if absent.
func (x *keyIndex) put(key, val int64) {
	x.cells[x.probe(key)] = keyCell{key: key, val: val}
}

// delete removes key, returning its value and whether it was resident.
func (x *keyIndex) delete(key int64) (int64, bool) {
	if key < 0 {
		return 0, false
	}
	pos := x.probe(key)
	if x.cells[pos].key != key {
		return 0, false
	}
	val := x.cells[pos].val
	// Pull each later entry of the run into the hole unless its home lies
	// cyclically after the hole, where the probe for it would not pass.
	for j := (pos + 1) & x.mask; x.cells[j].key >= 0; j = (j + 1) & x.mask {
		if h := x.home(x.cells[j].key); (j-h)&x.mask >= (j-pos)&x.mask {
			x.cells[pos] = x.cells[j]
			pos = j
		}
	}
	x.cells[pos].key = -1
	return val, true
}

// count returns the number of resident keys. It scans every cell, so it
// belongs in invariant checks and tests, not on the hot path.
func (x *keyIndex) count() int {
	n := 0
	for i := range x.cells {
		if x.cells[i].key >= 0 {
			n++
		}
	}
	return n
}
