package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// ghbEngine is a width prefetcher over the vault's row-activation stream,
// after the global-history-buffer organization of Nesbit & Smith (HPCA
// 2004) in its address-correlating form: activations enter a bounded
// history ring, and an address index table (AIT) hashed by the activation
// *delta* chains together the history positions where that delta was last
// seen. A trigger walks up to Width prior occurrences of its delta and
// predicts the Degree rows that followed each in the history — the "width"
// traversal — falling back to sequential next rows when the delta is new.
//
// Rows are copied with CloseAfter (like CAMPS, the engine assumes the
// predicted reuse lands in the buffer, not the row buffer).
type ghbEngine struct {
	ctx Context
	cfg config.GHB

	hist []ghbEntry // history ring (power-of-two length), indexed by absolute sequence & (len-1)
	seq  int64      // next absolute sequence number (total pushes)
	ait  []int64    // delta-hash -> absolute sequence of last push, -1 empty

	lastKey int64 // previous activation's rowKey, -1 before the first

	out []Fetch // borrowed OnDemandServed result
}

// ghbEntry is one row activation in the history ring.
type ghbEntry struct {
	key  int64 // rowKey of the activated row
	prev int64 // absolute sequence of the prior activation with the same delta hash, -1 none
}

func newGHB(cfg config.GHB, ctx Context) *ghbEngine {
	e := &ghbEngine{
		ctx:     ctx,
		cfg:     cfg,
		hist:    make([]ghbEntry, cfg.HistEntries),
		ait:     make([]int64, cfg.AITEntries),
		lastKey: -1,
	}
	for i := range e.ait {
		e.ait[i] = -1
	}
	return e
}

// live reports whether absolute history position p is still in the ring.
func (e *ghbEngine) live(p int64) bool { return p >= 0 && p >= e.seq-int64(len(e.hist)) }

func (e *ghbEngine) OnDemandServed(req Request, state dram.RowState, _ int64) []Fetch {
	if state == dram.RowHit {
		return nil // activations only: the GHB tracks row openings
	}
	key := rowKey(req.Bank, req.Row)
	if e.lastKey < 0 {
		e.lastKey = key
		return nil
	}
	delta := key - e.lastKey
	e.lastKey = key
	h := int(mix64(uint64(delta)) & uint64(len(e.ait)-1))
	chain := e.ait[h]
	e.hist[e.seq&int64(len(e.hist)-1)] = ghbEntry{key: key, prev: chain}
	e.ait[h] = e.seq
	e.seq++

	e.out = e.out[:0]
	add := func(k int64) {
		if k == key {
			return
		}
		bank, row := rowKeyBank(k), rowKeyRow(k)
		if bank < 0 || bank >= e.ctx.Banks || row < 0 {
			return
		}
		if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
			return
		}
		for _, f := range e.out {
			if f.Bank == bank && f.Row == row {
				return
			}
		}
		e.out = append(e.out, Fetch{Bank: bank, Row: row, CloseAfter: true})
	}

	// Width traversal: each live chain occurrence contributes the Degree
	// activations that followed it. prev pointers only move backwards in
	// sequence, so the walk cannot cycle; it is additionally bounded by
	// Width.
	ptr := chain
	for w := 0; w < e.cfg.Width && e.live(ptr); w++ {
		for d := int64(1); d <= int64(e.cfg.Degree); d++ {
			s := ptr + d
			if s >= e.seq-1 { // stop before the entry just pushed
				break
			}
			if !e.live(s) {
				continue
			}
			add(e.hist[s&int64(len(e.hist)-1)].key)
		}
		ptr = e.hist[ptr&int64(len(e.hist)-1)].prev
	}
	if len(e.out) > 0 {
		return e.out
	}
	// Cold delta: sequential fallback within the bank.
	for d := int64(1); d <= int64(e.cfg.Degree); d++ {
		row := req.Row + d
		if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
			break
		}
		e.out = append(e.out, Fetch{Bank: req.Bank, Row: row, CloseAfter: true})
	}
	if len(e.out) == 0 {
		return nil
	}
	return e.out
}

func (e *ghbEngine) OnBufferHit(Request) {}

func (e *ghbEngine) OnEviction(pfbuffer.Eviction) {}
