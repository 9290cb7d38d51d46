package serve

import (
	"errors"
	"sort"

	"camps/internal/exp"
)

// jobRecord is one line of the job journal: a state transition for one
// job. The submitting record (state "queued") carries the full spec;
// later transitions omit it and the journal merges on load. Terminal
// records carry the job's final accounting so tenant budgets survive
// restarts without re-reading every cell store.
type jobRecord struct {
	Seq       uint64   `json:"seq"` // monotone job sequence; identity across restarts
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     string   `json:"state"`
	Reason    string   `json:"reason,omitempty"`
	Cells     int      `json:"cells,omitempty"`
	CellsDone int      `json:"cells_done,omitempty"`
	Cached    int      `json:"cached,omitempty"`
	Ticks     int64    `json:"ticks_ps,omitempty"`
	Spec      *JobSpec `json:"spec,omitempty"`
}

// journal is the daemon's source of truth across crashes: an exp.Log of
// job state transitions, with every transition merged into a per-job
// view. The Log gives it the checkpoint's durability contract (fsync'd
// appends, torn-tail repair, atomic compaction). Guarded by the server
// mutex.
type journal struct {
	log   *exp.Log[jobRecord]
	jobs  map[string]jobRecord // merged latest state per job id
	order []string             // job ids in first-seen (submission) order
}

// openJournal opens (creating if needed) the journal, repairs a torn
// tail, and merges every job's transitions down to its latest state
// (retaining the spec from the submission record). A corrupt interior
// record is an error: the file is not one of ours.
func openJournal(path string) (*journal, error) {
	j := &journal{jobs: make(map[string]jobRecord)}
	hasID := func(rec jobRecord) error {
		if rec.ID == "" {
			return errors.New("record has no id")
		}
		return nil
	}
	log, err := exp.OpenLog(path, "journal", hasID, j.merge)
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// merge folds one transition into the per-job view, preserving the spec
// from the earliest record that carried it.
func (j *journal) merge(rec jobRecord) {
	prev, seen := j.jobs[rec.ID]
	if !seen {
		j.order = append(j.order, rec.ID)
	} else if rec.Spec == nil {
		rec.Spec = prev.Spec
	}
	j.jobs[rec.ID] = rec
}

// append durably writes one transition, then merges it.
func (j *journal) append(rec jobRecord) error {
	if err := j.log.Append(rec); err != nil {
		return err
	}
	j.merge(rec)
	return nil
}

// needsCompaction reports whether the transition log has outgrown its
// merged view enough to be worth rewriting.
func (j *journal) needsCompaction() bool {
	lines := j.log.Lines()
	return lines > 64 && lines > 4*len(j.jobs)
}

// compact atomically rewrites the journal as one merged record per job
// in submission order. The merged records carry their specs, so a
// compacted journal recovers identically to the original log.
func (j *journal) compact() error { return j.log.Rewrite(j.records()) }

// nextSeq returns the sequence number for a newly submitted job: one
// past the highest the journal has seen, so ids stay unique across
// restarts.
func (j *journal) nextSeq() uint64 {
	var max uint64
	for _, rec := range j.jobs {
		if rec.Seq > max {
			max = rec.Seq
		}
	}
	return max + 1
}

// records returns the merged per-job records in submission order.
func (j *journal) records() []jobRecord {
	out := make([]jobRecord, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.jobs[id])
	}
	return out
}

// close releases the journal file.
func (j *journal) close() error { return j.log.Close() }

// sortedKeys is a small helper for deterministic iteration over
// string-keyed maps in export paths.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
