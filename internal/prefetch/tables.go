package prefetch

import (
	"fmt"
	"math/bits"
)

// rutEntry is one Row Utilization Table entry: the row currently being
// profiled for a bank and the distinct cache lines referenced from it while
// open in the row buffer.
type rutEntry struct {
	row     int64
	touched uint64 // line bitmap
	valid   bool
}

func (e *rutEntry) util() int { return bits.OnesCount64(e.touched) }

// RUT is the Row Utilization Table of §3.1: one entry per bank in the
// vault, each tracking how many distinct cache lines have been accessed
// from the row occupying that bank's row buffer.
type RUT struct {
	entries []rutEntry
}

// newRUT returns a RUT for the given bank count.
func newRUT(banks int) *RUT {
	if banks <= 0 {
		panic("prefetch: RUT needs at least one bank")
	}
	return &RUT{entries: make([]rutEntry, banks)}
}

// track begins (or continues) profiling row in bank's entry and records a
// reference to line. It returns the distinct-line count after the access.
// Tracking a different row than the one resident replaces the entry; the
// caller is responsible for moving the displaced row to the CT first via
// displace.
func (r *RUT) track(bank int, row int64, line int) int {
	e := &r.entries[bank]
	if !e.valid || e.row != row {
		*e = rutEntry{row: row, valid: true}
	}
	e.touched |= 1 << uint(line)
	return e.util()
}

// bitmap returns the referenced-line bitmap for bank's tracked row.
func (r *RUT) bitmap(bank int) uint64 { return r.entries[bank].touched }

// clear drops bank's entry (after its row has been fetched to the buffer).
func (r *RUT) clear(bank int) { r.entries[bank] = rutEntry{} }

// displace removes and returns the row tracked for bank along with its
// referenced-line bitmap, if any; used when a row-buffer conflict replaces
// the open row (the displaced entry moves to the CT, §3.1).
func (r *RUT) displace(bank int) (row int64, touched uint64, ok bool) {
	e := &r.entries[bank]
	if !e.valid {
		return 0, 0, false
	}
	row, touched = e.row, e.touched
	*e = rutEntry{}
	return row, touched, true
}

// CT is the Conflict Table of §3.1: a small fully associative, LRU-managed
// table of rows recently displaced from row buffers anywhere in the vault,
// each carrying the row-utilization information its RUT entry had
// accumulated ("the replaced entry is moved to CT"). A row found here on
// its next activation has caused a row-buffer conflict and is a prefetch
// candidate.
//
// Like the hardware's associative search, every operation costs O(1): the
// entries live in a fixed slot array, resident slots on an intrusive
// doubly-linked LRU list and free slots on a free list threaded through the
// same links, and a keyIndex maps each resident rowKey(bank, row) to its
// slot.
type CT struct {
	slots      []ctSlot
	head, tail int32 // LRU and MRU resident slot; -1 when empty
	free       int32 // first free slot, chained through next; -1 when full
	n          int
	index      keyIndex // rowKey -> slot
}

type ctSlot struct {
	key        int64 // rowKey(bank, row)
	touched    uint64
	prev, next int32 // LRU neighbours (prev toward LRU); next chains the free list
}

// newCT returns a conflict table with the given capacity.
func newCT(capacity int) *CT {
	if capacity <= 0 {
		panic("prefetch: CT needs positive capacity")
	}
	c := &CT{
		slots: make([]ctSlot, capacity),
		head:  -1,
		tail:  -1,
		index: newKeyIndex(capacity),
	}
	for i := range c.slots {
		c.slots[i].next = int32(i + 1)
	}
	c.slots[capacity-1].next = -1
	return c
}

// Len returns the number of resident entries.
func (c *CT) Len() int { return c.n }

// capacity returns the table capacity.
func (c *CT) capacity() int { return len(c.slots) }

// Insert records a displaced row (with its referenced-line bitmap) as the
// MRU entry, evicting the LRU entry if the table is full. Re-inserting a
// resident row refreshes its recency and merges the bitmaps.
func (c *CT) Insert(bank int, row int64, touched uint64) {
	key := rowKey(bank, row)
	if v, ok := c.index.get(key); ok {
		s := int32(v)
		c.slots[s].touched |= touched
		c.unlink(s)
		c.pushMRU(s)
		return
	}
	if c.free < 0 {
		lru := c.head
		c.index.delete(c.slots[lru].key)
		c.release(lru)
	}
	s := c.free
	c.free = c.slots[s].next
	c.slots[s] = ctSlot{key: key, touched: touched}
	c.pushMRU(s)
	c.index.put(key, int64(s))
	c.n++
}

// Contains reports residency without changing recency.
func (c *CT) Contains(bank int, row int64) bool {
	_, ok := c.index.get(rowKey(bank, row))
	return ok
}

// Remove deletes the entry if present, returning its referenced-line
// bitmap and whether it was resident.
func (c *CT) Remove(bank int, row int64) (uint64, bool) {
	v, ok := c.index.delete(rowKey(bank, row))
	if !ok {
		return 0, false
	}
	s := int32(v)
	c.release(s)
	return c.slots[s].touched, true
}

// release unlinks slot s, already dropped from the index, from the LRU
// list and frees it.
func (c *CT) release(s int32) {
	c.unlink(s)
	c.slots[s].next = c.free
	c.free = s
	c.n--
}

func (c *CT) unlink(s int32) {
	e := &c.slots[s]
	if e.prev >= 0 {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *CT) pushMRU(s int32) {
	e := &c.slots[s]
	e.prev, e.next = c.tail, -1
	if c.tail >= 0 {
		c.slots[c.tail].next = s
	} else {
		c.head = s
	}
	c.tail = s
}

// check verifies the table's internal consistency: the LRU list holds Len
// distinct keys, each found through the index at exactly its own slot, and
// the index holds no other keys. It walks every structure, so it belongs
// in invariant checks, not on the hot path.
func (c *CT) check() error {
	listed, last := 0, int32(-1)
	for s := c.head; s >= 0; last, s = s, c.slots[s].next {
		if listed++; listed > len(c.slots) {
			return fmt.Errorf("prefetch: CT LRU list runs past capacity %d", len(c.slots))
		}
		e := &c.slots[s]
		if e.prev != last {
			return fmt.Errorf("prefetch: CT slot %d links back to %d, want %d", s, e.prev, last)
		}
		if got, ok := c.index.get(e.key); !ok || int32(got) != s {
			return fmt.Errorf("prefetch: CT bank %d row %d listed in slot %d, index finds slot %d (resident %v)",
				rowKeyBank(e.key), rowKeyRow(e.key), s, got, ok)
		}
	}
	if last != c.tail {
		return fmt.Errorf("prefetch: CT MRU is slot %d, list ends at %d", c.tail, last)
	}
	if listed != c.n {
		return fmt.Errorf("prefetch: CT LRU list holds %d entries, Len %d", listed, c.n)
	}
	if indexed := c.index.count(); indexed != c.n {
		return fmt.Errorf("prefetch: CT index holds %d keys, Len %d", indexed, c.n)
	}
	return nil
}
