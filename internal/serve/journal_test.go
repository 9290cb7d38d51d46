package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camps/internal/exp"
)

func testJournal(t *testing.T) (*journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.close() })
	return j, path
}

func TestJournalMergeAndReopen(t *testing.T) {
	j, path := testJournal(t)
	spec := &JobSpec{Tenant: "a", Spec: exp.Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS-MOD"}}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.append(jobRecord{Seq: 1, ID: "j1", Tenant: "a", State: StateQueued, Cells: 1, Spec: spec}))
	must(j.append(jobRecord{Seq: 2, ID: "j2", Tenant: "b", State: StateQueued, Cells: 2, Spec: spec}))
	must(j.append(jobRecord{Seq: 1, ID: "j1", Tenant: "a", State: StateRunning, Cells: 1}))
	must(j.append(jobRecord{Seq: 1, ID: "j1", Tenant: "a", State: StateDone, Cells: 1, CellsDone: 1, Ticks: 42}))
	j.close()

	re, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	recs := re.records()
	if len(recs) != 2 {
		t.Fatalf("merged records = %d; want 2", len(recs))
	}
	// Submission order preserved; latest state wins; spec survives
	// transitions that omitted it.
	if recs[0].ID != "j1" || recs[0].State != StateDone || recs[0].Ticks != 42 {
		t.Fatalf("j1 merged to %+v", recs[0])
	}
	if recs[0].Spec == nil || recs[0].Spec.Tenant != "a" {
		t.Fatalf("j1 lost its spec across transitions: %+v", recs[0].Spec)
	}
	if recs[1].ID != "j2" || recs[1].State != StateQueued {
		t.Fatalf("j2 merged to %+v", recs[1])
	}
	if re.nextSeq() != 3 {
		t.Fatalf("nextSeq = %d; want 3", re.nextSeq())
	}
}

// A crash mid-append leaves a torn final line; open must repair it by
// truncation and keep every intact record.
func TestJournalTornTailRepair(t *testing.T) {
	j, path := testJournal(t)
	if err := j.append(jobRecord{Seq: 1, ID: "j1", Tenant: "a", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	j.close()
	if err := appendRaw(path, `{"seq":2,"id":"j2","tenant":"a","st`); err != nil {
		t.Fatal(err)
	}

	re, err := openJournal(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := len(re.records()); got != 1 {
		t.Fatalf("records after repair = %d; want 1", got)
	}
	// The journal must be appendable after the repair, and the repaired
	// file must not retain the torn bytes.
	if err := re.append(jobRecord{Seq: 2, ID: "j2", Tenant: "a", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	re.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"st`) && !strings.Contains(string(data), `"state"`) {
		t.Fatalf("torn bytes survived repair:\n%s", data)
	}
	if got := strings.Count(string(data), "\n"); got != 2 {
		t.Fatalf("journal has %d lines; want 2:\n%s", got, data)
	}
}

// A corrupt record in the interior is not a torn append — it means the
// file is damaged, and silently dropping it would lose jobs.
func TestJournalCorruptInteriorRejected(t *testing.T) {
	j, path := testJournal(t)
	if err := j.append(jobRecord{Seq: 1, ID: "j1", Tenant: "a", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	j.close()
	if err := appendRaw(path, "garbage\n"); err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(path, `{"seq":2,"id":"j2","tenant":"a","state":"queued"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(path); err == nil {
		t.Fatal("corrupt interior record accepted")
	}
}

func TestJournalCompact(t *testing.T) {
	j, path := testJournal(t)
	spec := &JobSpec{Tenant: "a", Spec: exp.Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS-MOD"}}}
	for i := 1; i <= 40; i++ {
		id := "j" + string(rune('a'+i%3)) // three jobs transitioning repeatedly
		if err := j.append(jobRecord{Seq: uint64(i%3 + 1), ID: id, Tenant: "a", State: StateRunning, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if j.needsCompaction() {
		t.Fatal("needsCompaction below the line threshold")
	}
	for i := 0; i < 40; i++ {
		if err := j.append(jobRecord{Seq: 1, ID: "ja", Tenant: "a", State: StateRunning, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if !j.needsCompaction() {
		t.Fatal("needsCompaction false at 80 lines / 3 jobs")
	}
	before, _ := os.Stat(path)
	if err := j.compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before.Size(), after.Size())
	}
	// Post-compaction appends and reopen must both work.
	if err := j.append(jobRecord{Seq: 1, ID: "ja", Tenant: "a", State: StateDone, Ticks: 7}); err != nil {
		t.Fatal(err)
	}
	j.close()
	re, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	recs := re.records()
	if len(recs) != 3 {
		t.Fatalf("records after compact+reopen = %d; want 3", len(recs))
	}
	if recs[0].Spec == nil {
		t.Fatal("compaction dropped the spec")
	}
	for _, rec := range recs {
		if rec.ID == "ja" && (rec.State != StateDone || rec.Ticks != 7) {
			t.Fatalf("post-compaction append lost: %+v", rec)
		}
	}
}

func appendRaw(path, s string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
