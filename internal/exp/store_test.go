package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camps"
	"camps/internal/workload"
)

func testRecord(seed uint64) Record {
	mix, _ := workload.MixByID("HM1")
	c := Cell{Mix: mix, Scheme: camps.CAMPSMOD, Seed: seed}
	cr := CellResult{Attempt: 1, Results: camps.Results{Mix: "HM1", GeoMeanIPC: float64(seed) * 0.5}}
	return recordOf(c, cr)
}

func TestStoreAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if err := s.write(testRecord(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.done) != 3 {
		t.Fatalf("len = %d", len(s.done))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	done := s2.Done()
	if len(done) != 3 {
		t.Fatalf("reloaded %d records", len(done))
	}
	rec, ok := done["HM1/CAMPS-MOD/seed=2"]
	if !ok {
		t.Fatalf("missing record; keys = %v", done)
	}
	if rec.Results.GeoMeanIPC != 1.0 {
		t.Fatalf("results lost in round-trip: %+v", rec.Results)
	}
	cr := rec.cellResult()
	if !cr.Resumed || cr.Scheme != camps.CAMPSMOD || cr.Seed != 2 {
		t.Fatalf("cellResult = %+v", cr)
	}
}

func TestStoreResultsRoundTripCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1)
	rec.Results.VaultStats.RowConflicts.Add(77)
	rec.Results.BufferStats.FirstUseDelay.Observe(123)
	if err := s.write(rec); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	back := s2.Done()[rec.Key]
	if back.Results.VaultStats.RowConflicts.Value() != 77 {
		t.Fatalf("counter lost: %d", back.Results.VaultStats.RowConflicts.Value())
	}
	if back.Results.BufferStats.FirstUseDelay.Mean() != 123 {
		t.Fatalf("latency accumulator lost: %g", back.Results.BufferStats.FirstUseDelay.Mean())
	}
}

func TestStoreTornFinalLineIsRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.write(testRecord(1))
	s.write(testRecord(2))
	s.Close()

	// Simulate a crash mid-append: a truncated trailing record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"HM1/CAMPS-MOD/seed=3","resul`)
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.done) != 2 {
		t.Fatalf("len after torn append = %d, want 2", len(s2.done))
	}
	// The torn bytes must be truncated away so the next append is clean.
	if err := s2.write(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(s3.done) != 3 {
		t.Fatalf("len after repair+append = %d, want 3", len(s3.done))
	}
}

func TestStoreRejectsCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"key\":\"k\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("err = %v, want corrupt-record error", err)
	}
}

// TestStoreCompact: re-appending records for cells the store already
// holds (exactly what resumed campaigns do) grows the file; Compact
// rewrites it down to the latest record per key, keeps the newest
// values, and leaves the store usable for further appends.
func TestStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for seed := uint64(1); seed <= 4; seed++ {
			rec := testRecord(seed)
			rec.Attempt = round + 1 // newest round must survive compaction
			if err := s.write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	kept, dropped, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 4 || dropped != 8 {
		t.Fatalf("Compact = (kept %d, dropped %d), want (4, 8)", kept, dropped)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", before.Size(), after.Size())
	}

	// The store stays live: appends after Compact land in the new file.
	if err := s.write(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.done) != 5 {
		t.Fatalf("reloaded %d records, want 5", len(s2.done))
	}
	if got := s2.Done()["HM1/CAMPS-MOD/seed=2"].Attempt; got != 3 {
		t.Fatalf("compaction kept attempt %d, want the latest (3)", got)
	}
	// Compacting an already-compact store is a no-op.
	kept, dropped, err = s2.Compact()
	if err != nil || kept != 5 || dropped != 0 {
		t.Fatalf("second Compact = (%d, %d, %v), want (5, 0, nil)", kept, dropped, err)
	}
}

// TestStoreCreateSyncsParentDirectory: regression note for the
// create-without-directory-fsync bug. Append fsyncs made the *contents*
// durable, but the file's directory entry is separate metadata: on
// journaling filesystems a crash shortly after creation could lose the
// whole store even though every record in it had been synced. OpenStore
// now fsyncs the parent directory when it creates the file (syncDir,
// shared with AtomicWriteFile's rename path). Durability across power
// loss is untestable in-process; this pins the code path — creation in
// a freshly made directory — and the store's usability through it.
func TestStoreCreateSyncsParentDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s.jsonl")
	s, err := OpenStore(path) // creates: must sync the parent directory
	if err != nil {
		t.Fatal(err)
	}
	if err := s.write(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path) // reopen: the non-creating path
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.done) != 1 {
		t.Fatalf("reloaded %d records, want 1", len(s2.done))
	}
}

func TestStoreEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.done) != 0 {
		t.Fatalf("fresh store has %d records", len(s.done))
	}
}
