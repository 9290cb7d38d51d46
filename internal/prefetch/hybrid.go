package prefetch

import (
	"fmt"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// hybridEngine set-duels registered engines per vault. All candidates
// observe the full demand stream, but only the current winner's fetch
// directives are issued, so the duel never perturbs what it measures:
// each candidate's would-be fetches go into a private shadow table, and a
// later demand for a shadowed row — whether it reaches the bank or hits
// the buffer — scores that candidate a hit. Every EpochRequests demand
// requests the scores decay, fresh shadow accuracy is folded in, the live
// winner is additionally reinforced (or demoted) by the controller's
// eviction outcomes (useful_timely vs evicted_unused/conflict_victim, the
// prefetch-ledger taxonomy), and the best-scoring candidate takes over.
// When no candidate scores above zero the hybrid issues nothing — it
// degrades to NONE rather than prefetch on stale evidence.
type hybridEngine struct {
	ctx    Context
	epoch  int
	cands  []hybridCand
	winner int // index into cands; -1 = observing / disabled

	// shadow holds every candidate's private shadow table, direct-mapped
	// by rowKey, interleaved so one slot's entries for all candidates
	// share a cache line: candidate i's entry for slot s is at
	// s*len(cands)+i. Entries are predicted rowKeys, -1 empty.
	shadow []int64

	// owner maps fetched rows (direct-mapped by rowKey) to the candidate
	// whose directive fetched them, so eviction feedback reaches only the
	// engine that asked for the row.
	owner []ownerEntry
}

type hybridCand struct {
	name  string
	eng   Engine
	obs   EpochObserver // non-nil when the candidate adapts per epoch
	preds uint64        // shadow predictions recorded this epoch
	hits  uint64        // shadow predictions confirmed this epoch
	score int64
}

type ownerEntry struct {
	key  int64
	cand int
}

// newHybrid resolves the configured candidate names against the registry
// (an empty list means every registered fetching engine, i.e. non-meta and
// not NONE). Unresolvable or meta names are skipped here — ValidateConfig
// reports them as errors on the public API path.
func newHybrid(cfg config.Config, ctx Context) *hybridEngine {
	names := cfg.Hybrid.Candidates
	if len(names) == 0 {
		for _, s := range AllSchemes() {
			d := Describe(s)
			if !d.Meta && s != None {
				names = append(names, d.Name)
			}
		}
	}
	e := &hybridEngine{
		ctx:    ctx,
		epoch:  cfg.Hybrid.EpochRequests,
		winner: -1,
		owner:  make([]ownerEntry, cfg.Hybrid.ShadowEntries),
	}
	for i := range e.owner {
		e.owner[i] = ownerEntry{key: -1, cand: -1}
	}
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok || Describe(s).Meta {
			continue
		}
		c := hybridCand{
			name: Describe(s).Name,
			eng:  Describe(s).New(cfg, ctx),
		}
		c.obs, _ = c.eng.(EpochObserver)
		e.cands = append(e.cands, c)
	}
	e.shadow = make([]int64, cfg.Hybrid.ShadowEntries*len(e.cands))
	for i := range e.shadow {
		e.shadow[i] = -1
	}
	// Warm start on the first configured candidate (the config order makes
	// it the prior) instead of issuing nothing until the first election:
	// the duel can dethrone it after one epoch, but the warmup stream gets
	// prefetched meanwhile.
	if len(e.cands) > 0 {
		e.winner = 0
	}
	return e
}

// Winner exposes the live winner's name for tests and ablations
// ("" while observing or disabled).
func (e *hybridEngine) Winner() string {
	if e.winner < 0 {
		return ""
	}
	return e.cands[e.winner].name
}

func (e *hybridEngine) slot(k int64) int {
	return int(mix64(uint64(k)) & uint64(len(e.owner)-1))
}

// credit scores every candidate that shadow-predicted the row, consuming
// the prediction (one credit per predicted row).
func (e *hybridEngine) credit(key int64) {
	n := len(e.cands)
	base := e.slot(key) * n
	for i, k := range e.shadow[base : base+n] {
		if k == key {
			e.cands[i].hits++
			e.shadow[base+i] = -1
		}
	}
}

func (e *hybridEngine) OnDemandServed(req Request, state dram.RowState, displacedRow int64) []Fetch {
	e.credit(rowKey(req.Bank, req.Row))
	// Candidate results are borrowed: each is read in place before the
	// next candidate runs, and the winner's is returned as is — it stays
	// valid until this engine's next call, the only time the winner runs.
	var out []Fetch
	for i := range e.cands {
		c := &e.cands[i]
		fs := c.eng.OnDemandServed(req, state, displacedRow)
		for _, f := range fs {
			fk := rowKey(f.Bank, f.Row)
			c.preds++
			e.shadow[e.slot(fk)*len(e.cands)+i] = fk
		}
		if i == e.winner {
			out = fs
		}
	}
	for _, f := range out {
		fk := rowKey(f.Bank, f.Row)
		e.owner[e.slot(fk)] = ownerEntry{key: fk, cand: e.winner}
	}
	return out
}

func (e *hybridEngine) OnBufferHit(req Request) {
	// A buffer hit is the winner's prediction paying off in the real
	// system and the same row confirming the shadows' predictions.
	e.credit(rowKey(req.Bank, req.Row))
	for i := range e.cands {
		e.cands[i].eng.OnBufferHit(req)
	}
}

func (e *hybridEngine) OnEviction(ev pfbuffer.Eviction) {
	key := rowKey(ev.ID.Bank, ev.ID.Row)
	idx := e.slot(key)
	if o := e.owner[idx]; o.key == key && o.cand >= 0 && o.cand < len(e.cands) {
		e.cands[o.cand].eng.OnEviction(ev)
		e.owner[idx] = ownerEntry{key: -1, cand: -1}
	}
	// Unowned evictions (overwritten owner slot, pre-takeover residue) are
	// dropped: feedback must not reach an engine that never fetched the row.
}

// CheckInvariant runs the invariant check of every candidate that has one
// (the CAMPS tables), so a hybrid vault checks the shadow engines' tables
// as a single-engine vault checks its own.
func (e *hybridEngine) CheckInvariant() error {
	for i := range e.cands {
		if chk, ok := e.cands[i].eng.(interface{ CheckInvariant() error }); ok {
			if err := chk.CheckInvariant(); err != nil {
				return fmt.Errorf("hybrid candidate %s: %w", e.cands[i].name, err)
			}
		}
	}
	return nil
}

// EpochRequests implements EpochObserver.
func (e *hybridEngine) EpochRequests() int { return e.epoch }

// OnEpoch closes a duel epoch: candidates that adapt internally get their
// feedback (the winner sees the real eviction outcomes, shadows see their
// shadow accuracy restated in the same terms), scores decay and absorb the
// epoch's shadow accuracy, the live winner is reinforced by the ledger
// signals, and the next winner is elected (first index wins ties; no
// positive score disables fetching).
func (e *hybridEngine) OnEpoch(st EpochStats) {
	for i := range e.cands {
		c := &e.cands[i]
		if c.obs == nil {
			continue
		}
		if i == e.winner {
			c.obs.OnEpoch(st)
			continue
		}
		unused := uint64(0)
		if c.preds > c.hits {
			unused = c.preds - c.hits
		}
		c.obs.OnEpoch(EpochStats{
			Demands:       st.Demands,
			UsefulTimely:  c.hits,
			EvictedUnused: unused,
		})
	}
	for i := range e.cands {
		c := &e.cands[i]
		miss := int64(0)
		if c.preds > c.hits {
			miss = int64(c.preds - c.hits)
		}
		c.score = c.score/2 + 4*int64(c.hits) - miss
		c.preds, c.hits = 0, 0
	}
	if e.winner >= 0 {
		c := &e.cands[e.winner]
		c.score += 2*int64(st.UsefulTimely) + int64(st.UsefulLate) -
			2*int64(st.EvictedUnused) - int64(st.ConflictVictims)
	}
	// Elect with hysteresis: a challenger must beat the incumbent by 25%
	// (its positive score is discounted by a fifth), so a single noisy
	// epoch cannot dethrone a working winner — every takeover churns the
	// buffer and orphans the old winner's eviction feedback.
	best, bestScore := -1, int64(0)
	for i := range e.cands {
		s := e.cands[i].score
		if i != e.winner && s > 0 {
			s -= s / 5
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	e.winner = best
}
