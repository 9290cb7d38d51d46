package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// sisbEngine is a temporal next-address predictor in the spirit of the
// simple irregular-stream buffer (Jain & Lin, ISB): it memorizes, per
// activated row, which row the same bank activated next, in a bounded
// training table evicted FIFO. A trigger follows the learned successor
// chain up to Degree steps and fetches each predicted row. Temporal
// correlation captures irregular but recurring activation sequences that
// stride-style engines miss.
type sisbEngine struct {
	ctx Context
	cfg config.SISB

	next map[int64]int64 // rowKey -> next activated rowKey (same bank stream)
	// ring holds every trained key exactly once, oldest at head: keys are
	// appended only when first inserted into next (updates leave the ring
	// untouched), so the popped key is always resident and FIFO eviction
	// needs no per-entry bookkeeping.
	ring []int64
	head int
	size int

	last []int64 // per-bank previous activation rowKey, -1 before the first

	out []Fetch // borrowed OnDemandServed result
}

func newSISB(cfg config.SISB, ctx Context) *sisbEngine {
	e := &sisbEngine{
		ctx:  ctx,
		cfg:  cfg,
		next: make(map[int64]int64, cfg.TableEntries),
		ring: make([]int64, cfg.TableEntries),
		last: make([]int64, ctx.Banks),
	}
	for i := range e.last {
		e.last[i] = -1
	}
	return e
}

// train records key as the successor of the bank's previous activation.
func (e *sisbEngine) train(prev, key int64) {
	if _, known := e.next[prev]; !known {
		if e.size == len(e.ring) {
			delete(e.next, e.ring[e.head])
			e.ring[e.head] = prev
			e.head = (e.head + 1) % len(e.ring)
		} else {
			e.ring[(e.head+e.size)%len(e.ring)] = prev
			e.size++
		}
	}
	e.next[prev] = key
}

func (e *sisbEngine) OnDemandServed(req Request, state dram.RowState, _ int64) []Fetch {
	if state == dram.RowHit {
		return nil // activations only, like the other history engines
	}
	key := rowKey(req.Bank, req.Row)
	if prev := e.last[req.Bank]; prev >= 0 && prev != key {
		e.train(prev, key)
	}
	e.last[req.Bank] = key

	e.out = e.out[:0]
	p := key
	for d := 0; d < e.cfg.Degree; d++ {
		nk, ok := e.next[p]
		if !ok || nk == key {
			break
		}
		bank, row := rowKeyBank(nk), rowKeyRow(nk)
		if bank < 0 || bank >= e.ctx.Banks || row < 0 ||
			(e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank) {
			break
		}
		dup := false
		for _, f := range e.out {
			if f.Bank == bank && f.Row == row {
				dup = true
				break
			}
		}
		if dup {
			break // the chain closed a loop; stop
		}
		e.out = append(e.out, Fetch{Bank: bank, Row: row, CloseAfter: true})
		p = nk
	}
	if len(e.out) == 0 {
		return nil
	}
	return e.out
}

func (e *sisbEngine) OnBufferHit(Request) {}

func (e *sisbEngine) OnEviction(pfbuffer.Eviction) {}
