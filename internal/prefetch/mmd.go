package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// mmdEngine stands in for the memory-side prefetcher of Yedlapalli et al.
// ("Meeting Midway", PACT 2013) that the paper compares against: a
// history-confirmed row prefetcher that *dynamically adjusts the prefetch
// degree based on the usefulness of prefetched data* and manages its buffer
// with plain LRU.
//
// Once a row open in the row buffer shows TouchThreshold distinct line
// touches (evidence of spatial locality), the engine copies it to the
// prefetch buffer — leaving the row open, because unlike CAMPS this scheme
// is not conflict-aware — and, at degrees above one, also fetches the
// following rows of the bank. Usefulness feedback arrives through the
// EpochObserver hook: every EpochRequests demand requests the controller
// hands over the epoch's eviction outcomes, and the observed accuracy moves
// the degree up or down; a degree of zero disables prefetching until a
// probe epoch re-enables it.
type mmdEngine struct {
	ctx    Context
	cfg    config.MMD
	degree int
	touch  *RUT    // per-bank distinct-line counting of the open row
	out    []Fetch // borrowed OnDemandServed result, at most MaxDegree rows
}

func newMMD(cfg config.MMD, ctx Context) *mmdEngine {
	return &mmdEngine{
		ctx:    ctx,
		cfg:    cfg,
		degree: 1,
		touch:  NewRUT(ctx.Banks),
		out:    make([]Fetch, 0, cfg.MaxDegree),
	}
}

// Degree returns the current prefetch degree (exported for tests and the
// ablation benches).
func (e *mmdEngine) Degree() int { return e.degree }

func (e *mmdEngine) OnDemandServed(req Request, state dram.RowState, _ int64) []Fetch {
	if state != dram.RowHit {
		// A new row occupies the row buffer; restart its touch history.
		e.touch.Displace(req.Bank)
	}
	util := e.touch.Track(req.Bank, req.Row, req.Line)
	if e.degree == 0 || util < e.cfg.TouchThreshold {
		return nil
	}
	touched := e.touch.Bitmap(req.Bank)
	e.touch.Clear(req.Bank)
	// The confirmed row itself: copied but left open (open-page policy;
	// MMD is not conflict-aware).
	e.out = append(e.out[:0], Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: false, Touched: touched})
	for d := 1; d < e.degree; d++ {
		row := req.Row + int64(d)
		if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
			break
		}
		e.out = append(e.out, Fetch{Bank: req.Bank, Row: row, CloseAfter: true})
	}
	return e.out
}

func (e *mmdEngine) OnBufferHit(Request) {}

func (e *mmdEngine) OnEviction(pfbuffer.Eviction) {}

// EpochRequests implements EpochObserver: the feedback epoch length.
func (e *mmdEngine) EpochRequests() int { return e.cfg.EpochRequests }

// OnEpoch applies the usefulness feedback. The controller's eviction
// classification reconstructs the engine's historical counters exactly:
// used = timely + late, evicted = used + unused (the fetch-queue-drop
// ConflictVictims never reached the buffer and never counted as evictions
// here).
func (e *mmdEngine) OnEpoch(st EpochStats) {
	used := st.UsefulTimely + st.UsefulLate
	evicted := used + st.EvictedUnused
	if evicted == 0 {
		if e.degree == 0 {
			e.degree = 1 // probe: re-enable to gather fresh evidence
		}
		return
	}
	acc := float64(used) / float64(evicted)
	switch {
	case acc >= e.cfg.HighAccuracy && e.degree < e.cfg.MaxDegree:
		e.degree++
	case acc < e.cfg.LowAccuracy && e.degree > 0:
		e.degree--
	}
}
