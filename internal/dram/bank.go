package dram

import (
	"fmt"

	"camps/internal/sim"
)

// NoRow is the OpenRow value of a precharged bank.
const NoRow int64 = -1

// Ops counts the DRAM operations a bank has performed; the energy model
// multiplies these by per-operation energies.
type Ops struct {
	Activates  uint64
	Precharges uint64
	Reads      uint64 // single-line column reads
	Writes     uint64 // single-line column writes
	RowFetches uint64 // whole-row transfers bank -> prefetch buffer
	RowStores  uint64 // whole-row transfers prefetch buffer -> bank
	Refreshes  uint64
}

// Add accumulates another Ops into this one.
func (o *Ops) Add(b Ops) {
	o.Activates += b.Activates
	o.Precharges += b.Precharges
	o.Reads += b.Reads
	o.Writes += b.Writes
	o.RowFetches += b.RowFetches
	o.RowStores += b.RowStores
	o.Refreshes += b.Refreshes
}

// Bank is one DRAM bank's row buffer and timing state.
type Bank struct {
	t       Timing
	openRow int64

	// Earliest legal issue times for each command class.
	nextAct sim.Time
	nextPre sim.Time
	nextCol sim.Time // next RD or WR

	ops Ops
}

// NewBank returns a precharged bank. A vault holds its banks by value in
// one slice and works on them in place.
func NewBank(t Timing) Bank {
	return Bank{t: t, openRow: NoRow}
}

// OpenRow returns the currently open row, or NoRow.
func (b *Bank) OpenRow() int64 { return b.openRow }

// IsOpen reports whether any row is open.
func (b *Bank) IsOpen() bool { return b.openRow != NoRow }

// Ops returns the operation counters.
func (b *Bank) Ops() Ops { return b.ops }

// EarliestActivate returns the earliest time an ACT may issue.
func (b *Bank) EarliestActivate() sim.Time { return b.nextAct }

// EarliestPrecharge returns the earliest time a PRE may issue.
func (b *Bank) EarliestPrecharge() sim.Time { return b.nextPre }

// EarliestColumn returns the earliest time a RD/WR may issue.
func (b *Bank) EarliestColumn() sim.Time { return b.nextCol }

// Activate opens row at time at (which must respect EarliestActivate) and
// returns the time the row becomes usable (at+tRCD).
func (b *Bank) Activate(at sim.Time, row int64) sim.Time {
	if b.openRow != NoRow {
		panic(fmt.Sprintf("dram: ACT on open bank (row %d open)", b.openRow))
	}
	if at < b.nextAct {
		panic(fmt.Sprintf("dram: ACT at %v before earliest %v", at, b.nextAct))
	}
	if row < 0 {
		panic("dram: ACT of negative row")
	}
	b.openRow = row
	b.nextCol = at + b.t.RCD
	b.nextPre = at + b.t.RAS
	b.ops.Activates++
	return at + b.t.RCD
}

// Precharge closes the open row at time at and returns the time the bank is
// ready for the next ACT (at+tRP).
func (b *Bank) Precharge(at sim.Time) sim.Time {
	if b.openRow == NoRow {
		panic("dram: PRE on closed bank")
	}
	if at < b.nextPre {
		panic(fmt.Sprintf("dram: PRE at %v before earliest %v", at, b.nextPre))
	}
	b.openRow = NoRow
	b.nextAct = at + b.t.RP
	b.ops.Precharges++
	return at + b.t.RP
}

// Read issues a single-line column read at time at. It returns the time the
// line's data transfer completes (at + tCL + tBL).
func (b *Bank) Read(at sim.Time) sim.Time {
	b.checkColumn(at, "RD")
	b.nextCol = at + b.t.CCD
	if pre := at + b.t.RTP; pre > b.nextPre {
		b.nextPre = pre
	}
	b.ops.Reads++
	return at + b.t.CL + b.t.BL
}

// Write issues a single-line column write at time at. It returns the time
// the write burst completes on the data bus (at + tCWL + tBL); the bank
// cannot precharge until tWR after that.
func (b *Bank) Write(at sim.Time) sim.Time {
	b.checkColumn(at, "WR")
	b.nextCol = at + b.t.CCD
	end := at + b.t.CWL + b.t.BL
	if pre := end + b.t.WR; pre > b.nextPre {
		b.nextPre = pre
	}
	b.ops.Writes++
	return end
}

// FetchRow streams the whole open row (lines consecutive bursts) to the
// vault's prefetch buffer over the TSVs. It returns the completion time of
// the last burst. The caller is expected to precharge afterwards, per the
// CAMPS policy.
func (b *Bank) FetchRow(at sim.Time, lines int) sim.Time {
	b.checkColumn(at, "FETCH")
	if lines <= 0 {
		panic("dram: FetchRow needs at least one line")
	}
	end := at + b.t.CL + sim.Time(lines)*b.t.BL
	b.nextCol = end
	if pre := end; pre > b.nextPre {
		b.nextPre = pre
	}
	b.ops.RowFetches++
	return end
}

// StoreRow streams a whole dirty row from the prefetch buffer back into the
// open row. It returns the completion time; precharge is legal tWR later.
func (b *Bank) StoreRow(at sim.Time, lines int) sim.Time {
	b.checkColumn(at, "STORE")
	if lines <= 0 {
		panic("dram: StoreRow needs at least one line")
	}
	end := at + b.t.CWL + sim.Time(lines)*b.t.BL
	b.nextCol = end
	if pre := end + b.t.WR; pre > b.nextPre {
		b.nextPre = pre
	}
	b.ops.RowStores++
	return end
}

// Refresh performs a refresh starting at time at; the bank must be
// precharged. It returns the time the bank may activate again.
func (b *Bank) Refresh(at sim.Time) sim.Time {
	if b.openRow != NoRow {
		panic("dram: REF on open bank")
	}
	if at < b.nextAct {
		panic(fmt.Sprintf("dram: REF at %v before earliest ACT %v", at, b.nextAct))
	}
	b.nextAct = at + b.t.RFC
	b.ops.Refreshes++
	return b.nextAct
}

// CheckInvariant validates the bank's structural invariants: every ACT
// opens a row and every PRE closes one, so an open bank has performed
// exactly one more activate than precharges and a closed bank an equal
// number (refresh requires the precharged state and changes neither).
// It is read-only and is wired into the simulator's epoch checker.
func (b *Bank) CheckInvariant() error {
	if b.openRow < NoRow {
		return fmt.Errorf("dram: open row %d below NoRow", b.openRow)
	}
	want := b.ops.Precharges
	if b.openRow != NoRow {
		want++
	}
	if b.ops.Activates != want {
		return fmt.Errorf("dram: %d activates vs %d precharges with open row %d",
			b.ops.Activates, b.ops.Precharges, b.openRow)
	}
	return nil
}

func (b *Bank) checkColumn(at sim.Time, op string) {
	if b.openRow == NoRow {
		panic(fmt.Sprintf("dram: %s on closed bank", op))
	}
	if at < b.nextCol {
		panic(fmt.Sprintf("dram: %s at %v before earliest %v", op, at, b.nextCol))
	}
}

// RowState classifies what servicing a request for row means given the
// bank's current state.
type RowState int

const (
	// RowHit: the target row is open.
	RowHit RowState = iota
	// RowMiss: the bank is precharged (ACT needed, no PRE).
	RowMiss
	// RowConflict: a different row is open (PRE+ACT needed).
	RowConflict
)

// String returns the conventional name of the state.
func (s RowState) String() string {
	switch s {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	case RowConflict:
		return "conflict"
	}
	return "unknown"
}

// Classify returns how a request for row would be served right now.
func (b *Bank) Classify(row int64) RowState {
	switch b.openRow {
	case row:
		return RowHit
	case NoRow:
		return RowMiss
	default:
		return RowConflict
	}
}
