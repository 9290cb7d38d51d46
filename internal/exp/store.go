package exp

import (
	"errors"
	"sort"
	"time"

	"camps"
)

// Record is one line of the campaign checkpoint: the cell's identity, the
// execution bookkeeping, and the full simulation results. camps.Results
// round-trips through JSON (its embedded counters and latency accumulators
// have custom marshalers), so a resumed cell is indistinguishable from a
// freshly-run one to downstream consumers.
type Record struct {
	Key     string        `json:"key"`
	Mix     string        `json:"mix"`
	Scheme  string        `json:"scheme"`
	Seed    uint64        `json:"seed"`
	Knob    string        `json:"knob,omitempty"`
	Value   int64         `json:"value,omitempty"`
	Attempt int           `json:"attempt"`
	WallMS  float64       `json:"wall_ms"`
	Results camps.Results `json:"results"`
}

// recordOf builds the checkpoint record for a completed cell.
func recordOf(c Cell, cr CellResult) Record {
	return Record{
		Key:     c.Key(),
		Mix:     c.Mix.ID,
		Scheme:  c.Scheme.String(),
		Seed:    c.Seed,
		Knob:    c.Knob,
		Value:   c.Value,
		Attempt: cr.Attempt,
		WallMS:  float64(cr.Duration) / float64(time.Millisecond),
		Results: cr.Results,
	}
}

// cellResult reconstitutes a resumed cell from its checkpoint record.
func (r Record) cellResult() CellResult {
	scheme, err := camps.ParseScheme(r.Scheme)
	if err != nil {
		// The scheme name came from Scheme.String(), so this only happens
		// on a hand-edited store; fall back to what the results recorded.
		scheme = r.Results.Scheme
	}
	return CellResult{
		Mix: r.Mix, Scheme: scheme, Seed: r.Seed,
		Knob: r.Knob, Value: r.Value,
		Attempt: r.Attempt, Resumed: true, Results: r.Results,
	}
}

// Store is the campaign checkpoint: a Log of completed cells, keyed by
// cell key. A record appended again for a key supersedes the earlier
// one.
type Store struct {
	log  *Log[Record]
	done map[string]Record
}

// OpenStore opens (creating if needed) the checkpoint at path and loads
// every complete record, repairing a torn final line (see OpenLog).
func OpenStore(path string) (*Store, error) {
	s := &Store{done: make(map[string]Record)}
	hasKey := func(rec Record) error {
		if rec.Key == "" {
			return errors.New("record has no key")
		}
		return nil
	}
	log, err := OpenLog(path, "checkpoint", hasKey, func(rec Record) { s.done[rec.Key] = rec })
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// Done returns the loaded records keyed by cell key (a copy).
func (s *Store) Done() map[string]Record {
	out := make(map[string]Record, len(s.done))
	for k, v := range s.done {
		out[k] = v
	}
	return out
}

// Len returns the number of records in the store.
func (s *Store) Len() int { return len(s.done) }

// Append durably writes one record: it is visible to a subsequent
// OpenStore as soon as Append returns.
func (s *Store) Append(rec Record) error {
	if err := s.log.Append(rec); err != nil {
		return err
	}
	s.done[rec.Key] = rec
	return nil
}

// Compact rewrites the store keeping only the latest record per cell key,
// in sorted key order. Resumed campaigns re-append records the file
// already holds (the map keeps the latest, but the file keeps them all),
// so a long-lived store grows without bound until compacted. The rewrite
// is atomic (Log.Rewrite). Returns the records kept and the superseded
// lines dropped.
func (s *Store) Compact() (kept, dropped int, err error) {
	keys := make([]string, 0, len(s.done))
	for k := range s.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = s.done[k]
	}
	dropped = s.log.Lines() - len(recs)
	if err := s.log.Rewrite(recs); err != nil {
		return 0, 0, err
	}
	return len(recs), dropped, nil
}

// Close releases the underlying file.
func (s *Store) Close() error { return s.log.Close() }
