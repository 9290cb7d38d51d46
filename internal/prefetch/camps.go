package prefetch

import (
	"fmt"
	"math/bits"

	"camps/internal/config"
	"camps/internal/dram"
)

// campsEngine implements the conflict-aware prefetching of §3.1.
//
// Row-buffer hit: the served row's utilization is tracked in the RUT; once
// the distinct-line count reaches the threshold (4 in the paper) the whole
// row is fetched to the prefetch buffer and the bank precharged.
//
// Row-buffer miss: the newly activated row is checked against the CT. If
// present, the row was displaced recently — it is conflict-prone — so it is
// fetched whole to the buffer, removed from the CT, and the bank
// precharged. If absent, the row stays open and enters the RUT.
//
// Row-buffer conflict: the displaced row's RUT entry moves to the CT (LRU
// eviction when full), then the new row is handled as a miss.
type campsEngine struct {
	ctx       Context
	rut       *RUT
	ct        *CT
	threshold int
	out       []Fetch // borrowed OnDemandServed result
}

func newCAMPS(cfg config.CAMPS, ctx Context) *campsEngine {
	return &campsEngine{
		ctx:       ctx,
		rut:       newRUT(ctx.Banks),
		ct:        newCT(cfg.CTEntries),
		threshold: cfg.UtilThreshold,
	}
}

func (e *campsEngine) OnDemandServed(req Request, state dram.RowState, displacedRow int64) []Fetch {
	switch state {
	case dram.RowHit:
		util := e.rut.track(req.Bank, req.Row, req.Line)
		if util >= e.threshold {
			touched := e.rut.bitmap(req.Bank)
			e.rut.clear(req.Bank)
			return e.fetch(req, touched)
		}
		return nil

	case dram.RowConflict:
		// The open row was displaced to serve this request: its RUT entry
		// (row plus utilization bitmap) moves to the conflict table.
		if displaced, touched, ok := e.rut.displace(req.Bank); ok {
			e.ct.insert(req.Bank, displaced, touched)
		} else if displacedRow != dram.NoRow {
			// The displaced row was not under RUT profiling (e.g. it was
			// opened by a writeback); it still conflicted.
			e.ct.insert(req.Bank, displacedRow, 0)
		}
		return e.onNewRow(req)

	default: // dram.RowMiss
		return e.onNewRow(req)
	}
}

// onNewRow handles a row that was just activated for this request.
func (e *campsEngine) onNewRow(req Request) []Fetch {
	if touched, ok := e.ct.remove(req.Bank, req.Row); ok {
		// Recently displaced and accessed again: conflict-prone. Fetch it
		// whole and precharge; do not profile it further. The lines it
		// accumulated before displacement seed the buffer entry's
		// utilization, per the CT's stored row-utilization information.
		return e.fetch(req, touched|1<<uint(req.Line))
	}
	util := e.rut.track(req.Bank, req.Row, req.Line)
	if util >= e.threshold {
		// Degenerate configuration (threshold 1): fetch immediately.
		touched := e.rut.bitmap(req.Bank)
		e.rut.clear(req.Bank)
		return e.fetch(req, touched)
	}
	return nil
}

// fetch directs a whole-row copy of the request's row, precharging after.
func (e *campsEngine) fetch(req Request, touched uint64) []Fetch {
	e.out = append(e.out[:0], Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: true, Touched: touched})
	return e.out
}

// CheckInvariant validates the engine's tables: CT occupancy within
// capacity and its LRU list and index consistent with each other, the RUT
// sized one entry per bank, and every tracked bitmap within the vault's
// lines-per-row mask. It implements the optional invariant-checking
// interface the vault controller probes for.
func (e *campsEngine) CheckInvariant() error {
	if n, c := e.ct.size(), e.ct.capacity(); n > c {
		return fmt.Errorf("prefetch: CT holds %d entries over capacity %d", n, c)
	}
	if err := e.ct.check(); err != nil {
		return err
	}
	if len(e.rut.entries) != e.ctx.Banks {
		return fmt.Errorf("prefetch: RUT has %d entries for %d banks", len(e.rut.entries), e.ctx.Banks)
	}
	for b := range e.rut.entries {
		en := &e.rut.entries[b]
		if !en.valid {
			continue
		}
		if util := bits.OnesCount64(en.touched); util > e.ctx.LinesPerRow {
			return fmt.Errorf("prefetch: RUT bank %d tracks %d lines of %d per row",
				b, util, e.ctx.LinesPerRow)
		}
	}
	return nil
}
