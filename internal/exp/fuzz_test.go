package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"camps"
)

// FuzzStoreRepair throws arbitrary bytes at the JSONL checkpoint loader.
// OpenStore's contract under corruption: never panic; repair a torn
// final line by truncating it away; reject corruption elsewhere with an
// error; and leave any successfully-opened store in a usable,
// stable state (appends land, reopening sees them, re-repair is a
// no-op).
func FuzzStoreRepair(f *testing.F) {
	rec := Record{Key: "HM1/CAMPS/seed=1", Mix: "HM1", Scheme: "CAMPS", Seed: 1, Attempt: 1,
		Results: camps.Results{Scheme: camps.CAMPS}}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')

	f.Add([]byte{})                                        // empty store
	f.Add(line)                                            // one complete record
	f.Add(append(append([]byte{}, line...), line[:20]...)) // torn append
	f.Add([]byte("{\"key\":\"\"}\n"))                      // keyless record
	f.Add([]byte("not json at all\n{\"key\":\"x\"}\n"))    // corruption before the end
	f.Add([]byte("\n\n\n"))
	f.Add(bytes.Repeat([]byte("{"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(path)
		if err != nil {
			return // rejected as corrupt: fine, as long as we did not panic
		}
		n := len(s.done)

		// The repaired store accepts appends and round-trips them.
		extra := Record{Key: "fuzz/extra", Mix: "MX1", Scheme: "BASE", Seed: 7, Attempt: 1}
		if aerr := s.write(extra); aerr != nil {
			t.Fatalf("append after repair: %v", aerr)
		}
		if len(s.done) < n+1 && s.done["fuzz/extra"].Key != "fuzz/extra" {
			t.Fatalf("append did not land: len %d -> %d", n, len(s.done))
		}
		if cerr := s.Close(); cerr != nil {
			t.Fatalf("close: %v", cerr)
		}

		// Repair is stable: reopening succeeds and sees every surviving
		// record plus the appended one.
		s2, err := OpenStore(path)
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		defer s2.Close()
		got, ok := s2.Done()["fuzz/extra"]
		if !ok || got.Mix != "MX1" || got.Seed != 7 {
			t.Fatalf("appended record lost on reopen: %+v", got)
		}
		if len(s2.done) != len(s.done) {
			t.Fatalf("record count changed across reopen: %d != %d", len(s2.done), len(s.done))
		}
	})
}
