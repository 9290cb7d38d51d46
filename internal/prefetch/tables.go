package prefetch

import "math/bits"

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

// NewRUT returns a RUT for the given bank count.
func NewRUT(banks int) *RUT {
	if banks <= 0 {
		panic("prefetch: RUT needs at least one bank")
	}
	return &RUT{entries: make([]rutEntry, banks)}
}

// Track begins (or continues) profiling row in bank's entry and records a
// reference to line. It returns the distinct-line count after the access.
// Tracking a different row than the one resident replaces the entry; the
// caller is responsible for moving the displaced row to the CT first via
// Displace.
func (r *RUT) Track(bank int, row int64, line int) int {
	e := &r.entries[bank]
	if !e.valid || e.row != row {
		*e = rutEntry{row: row, valid: true}
	}
	e.touched |= 1 << uint(line)
	return e.util()
}

// Row returns the row being profiled for bank and whether one is tracked.
func (r *RUT) Row(bank int) (int64, bool) {
	e := &r.entries[bank]
	return e.row, e.valid
}

// Util returns the distinct-line count for bank's tracked row (0 if none).
func (r *RUT) Util(bank int) int {
	e := &r.entries[bank]
	if !e.valid {
		return 0
	}
	return e.util()
}

// Bitmap returns the referenced-line bitmap for bank's tracked row.
func (r *RUT) Bitmap(bank int) uint64 { return r.entries[bank].touched }

// Clear drops bank's entry (after its row has been fetched to the buffer).
func (r *RUT) Clear(bank int) { r.entries[bank] = rutEntry{} }

// Displace removes and returns the row tracked for bank along with its
// referenced-line bitmap, if any; used when a row-buffer conflict replaces
// the open row (the displaced entry moves to the CT, §3.1).
func (r *RUT) Displace(bank int) (row int64, touched uint64, ok bool) {
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
type CT struct {
	cap     int
	entries []ctEntry // index 0 = LRU, last = MRU
}

type ctEntry struct {
	bank    int
	row     int64
	touched uint64
}

// NewCT returns a conflict table with the given capacity.
func NewCT(capacity int) *CT {
	if capacity <= 0 {
		panic("prefetch: CT needs positive capacity")
	}
	return &CT{cap: capacity, entries: make([]ctEntry, 0, capacity)}
}

// Len returns the number of resident entries.
func (c *CT) Len() int { return len(c.entries) }

// Capacity returns the table capacity.
func (c *CT) Capacity() int { return c.cap }

// Insert records a displaced row (with its referenced-line bitmap) as the
// MRU entry, evicting the LRU entry if the table is full. Re-inserting a
// resident row refreshes its recency and merges the bitmaps.
func (c *CT) Insert(bank int, row int64, touched uint64) {
	if i := c.find(bank, row); i >= 0 {
		touched |= c.entries[i].touched
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	} else if len(c.entries) == c.cap {
		// Drop the LRU entry by shifting down in place: reslicing off the
		// front would leak capacity and reallocate every cap inserts.
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:len(c.entries)-1]
	}
	c.entries = append(c.entries, ctEntry{bank: bank, row: row, touched: touched})
}

// Contains reports residency without changing recency.
func (c *CT) Contains(bank int, row int64) bool {
	return c.find(bank, row) >= 0
}

// Remove deletes the entry if present, returning its referenced-line
// bitmap and whether it was resident.
func (c *CT) Remove(bank int, row int64) (uint64, bool) {
	i := c.find(bank, row)
	if i < 0 {
		return 0, false
	}
	touched := c.entries[i].touched
	c.entries = append(c.entries[:i], c.entries[i+1:]...)
	return touched, true
}

func (c *CT) find(bank int, row int64) int {
	for i := range c.entries {
		if c.entries[i].bank == bank && c.entries[i].row == row {
			return i
		}
	}
	return -1
}
