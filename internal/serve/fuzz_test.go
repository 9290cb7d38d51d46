package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"camps/internal/exp"
)

// FuzzJournalRepair throws arbitrary bytes at the job journal's loader
// (the exp.Log shared with the campaign checkpoint). openJournal's
// contract under corruption: never panic; repair a torn final line by
// truncating it away, and drop nothing else — corruption elsewhere is an
// error; and leave any successfully opened journal usable and stable
// (appends land, reopening sees them, re-repair is a no-op).
func FuzzJournalRepair(f *testing.F) {
	line, err := json.Marshal(jobRecord{Seq: 1, ID: "j000001", Tenant: "a", State: StateQueued,
		Cells: 1, Spec: &JobSpec{Tenant: "a", Spec: exp.Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS"}}}})
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')

	f.Add([]byte{})                                        // empty journal
	f.Add(line)                                            // one complete record
	f.Add(append(append([]byte{}, line...), line[:20]...)) // torn append
	f.Add([]byte("{\"id\":\"\"}\n"))                       // idless record
	f.Add([]byte("not json at all\n{\"id\":\"x\"}\n"))     // corruption before the end
	f.Add([]byte("\n\n\n"))
	f.Add(bytes.Repeat([]byte("{"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(path)
		if err != nil {
			return // rejected as corrupt: fine, as long as we did not panic
		}

		// Repair only truncates, and only the final line; every line it
		// keeps is a record.
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, repaired) {
			t.Fatalf("repair rewrote bytes: %q -> %q", data, repaired)
		}
		if nl := bytes.IndexByte(data[len(repaired):], '\n'); nl >= 0 && nl != len(data)-len(repaired)-1 {
			t.Fatalf("repair dropped more than the final line: %q -> %q", data, repaired)
		}
		if lines := bytes.Count(repaired, []byte{'\n'}); lines != j.log.Lines() {
			t.Fatalf("repaired journal has %d lines but loaded %d records", lines, j.log.Lines())
		}
		n := len(j.records())

		// The repaired journal accepts appends and merges them.
		extra := jobRecord{Seq: 9, ID: "fuzz-extra", Tenant: "t", State: StateDone, Ticks: 7}
		if err := j.append(extra); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if got := j.jobs["fuzz-extra"]; got.State != StateDone || got.Ticks != 7 {
			t.Fatalf("append did not merge: %+v", got)
		}
		want := len(j.records())
		if err := j.close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Repair is stable: reopening succeeds and sees every surviving
		// job plus the appended one.
		re, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		defer re.close()
		if got := re.jobs["fuzz-extra"]; got.State != StateDone || got.Ticks != 7 || got.Seq != 9 {
			t.Fatalf("appended record lost on reopen: %+v", got)
		}
		if got := len(re.records()); got != want || want < n {
			t.Fatalf("job count changed across reopen: %d before, %d after (%d at open)", want, got, n)
		}
	})
}
