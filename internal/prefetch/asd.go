package prefetch

import "camps/internal/dram"

// asdEngine is an extension beyond the paper's five compared schemes: a
// row-granularity adaptation of Hur & Lin's Adaptive Stream Detection
// (MICRO 2006), which the paper discusses as related work [10]. The
// original issues prefetches sized by a histogram of observed stream
// lengths; here, streams are detected as monotonically advancing line
// accesses within the open row, the confirmed row is copied to the buffer,
// and a stream-length histogram measured each epoch decides whether the
// *following* row is worth prefetching too (depth 2) — the row-sized
// analogue of "prefetch n+1 while streams keep going".
type asdEngine struct {
	ctx Context

	// Per-bank direction detector for the open row.
	lastRow   []int64
	lastLine  []int
	ascending []int // consecutive ascending line touches

	// Stream-length histogram, epoch based: how many references each
	// row-episode contained before the row changed.
	epLen      []int // current episode length per bank
	hist       [17]uint64
	epochCount int
	depth      int

	out []Fetch // borrowed OnDemandServed result
}

// asdEpoch is the number of closed episodes per adaptation epoch.
const asdEpoch = 256

// asdConfirm is the ascending-touch count that confirms a stream.
const asdConfirm = 2

func newASD(ctx Context) *asdEngine {
	e := &asdEngine{
		ctx:       ctx,
		lastRow:   make([]int64, ctx.Banks),
		lastLine:  make([]int, ctx.Banks),
		ascending: make([]int, ctx.Banks),
		epLen:     make([]int, ctx.Banks),
		depth:     1,
	}
	for i := range e.lastRow {
		e.lastRow[i] = -1
	}
	return e
}

func (e *asdEngine) OnDemandServed(req Request, state dram.RowState, _ int64) []Fetch {
	b := req.Bank
	if state != dram.RowHit || e.lastRow[b] != req.Row {
		// New episode: close the previous one into the histogram.
		e.closeEpisode(b)
		e.lastRow[b] = req.Row
		e.lastLine[b] = req.Line
		e.ascending[b] = 0
		e.epLen[b] = 1
		return nil
	}
	e.epLen[b]++
	if req.Line > e.lastLine[b] {
		e.ascending[b]++
	} else {
		e.ascending[b] = 0
	}
	e.lastLine[b] = req.Line
	if e.ascending[b] != asdConfirm {
		return nil
	}
	// Stream confirmed: copy the row (leave it open — ASD is not
	// conflict-aware) and, at depth 2, its successor.
	e.out = append(e.out[:0], Fetch{Bank: b, Row: req.Row, CloseAfter: false,
		Touched: 1 << uint(req.Line)})
	if e.depth >= 2 {
		next := req.Row + 1
		if e.ctx.RowsPerBank == 0 || next < e.ctx.RowsPerBank {
			e.out = append(e.out, Fetch{Bank: b, Row: next, CloseAfter: true})
		}
	}
	return e.out
}

// closeEpisode records a finished row episode and adapts depth each epoch.
func (e *asdEngine) closeEpisode(b int) {
	if e.lastRow[b] < 0 || e.epLen[b] == 0 {
		return
	}
	n := e.epLen[b]
	if n > 16 {
		n = 16
	}
	e.hist[n]++
	e.epLen[b] = 0
	e.epochCount++
	if e.epochCount < asdEpoch {
		return
	}
	// Long episodes (rows consumed nearly whole) suggest streams that will
	// run into the next row: raise depth. Mostly-short episodes: stay at 1.
	var short, long uint64
	for l, c := range e.hist {
		if l >= 12 {
			long += c
		} else {
			short += c
		}
	}
	if long > short {
		e.depth = 2
	} else {
		e.depth = 1
	}
	e.hist = [17]uint64{}
	e.epochCount = 0
}
