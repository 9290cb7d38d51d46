package prefetch

import "camps/internal/dram"

// baseEngine is the paper's BASE scheme: prefetch the whole row on the
// first access to it and precharge the bank once the copy completes. Every
// demand that reaches a bank therefore triggers a fetch, the buffer churns
// constantly, and — as §5.2 notes — row-buffer conflicts disappear because
// the bank is always closed behind the copy.
type baseEngine struct {
	out []Fetch // borrowed OnDemandServed result
}

func (e *baseEngine) OnDemandServed(req Request, _ dram.RowState, _ int64) []Fetch {
	e.out = append(e.out[:0], Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: true,
		Touched: 1 << uint(req.Line)})
	return e.out
}

// baseHitEngine is the BASE-HIT scheme: fetch a whole row only when the
// read queue holds two or more (further) requests for it, i.e. when there
// is direct evidence the rest of the row is wanted. The bank follows the
// normal open-page policy otherwise, so row-buffer conflicts remain.
type baseHitEngine struct {
	ctx Context
	out []Fetch // borrowed OnDemandServed result
}

func newBaseHit(ctx Context) *baseHitEngine { return &baseHitEngine{ctx: ctx} }

func (e *baseHitEngine) OnDemandServed(req Request, _ dram.RowState, _ int64) []Fetch {
	if e.ctx.Queue == nil {
		return nil
	}
	if e.ctx.Queue.PendingReadsForRow(req.Bank, req.Row) >= 2 {
		// Copy but keep the row open: BASE-HIT follows the normal
		// open-page policy, so row-buffer conflicts remain (it is the
		// scheme with the most conflicts in the paper's Figure 6).
		e.out = append(e.out[:0], Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: false,
			Touched: 1 << uint(req.Line)})
		return e.out
	}
	return nil
}
