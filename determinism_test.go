package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"camps"
)

// goldenRun is the fixed configuration whose exported metrics are pinned
// in testdata/golden_mx1_campsmod.json. It matches TestGoldenDeterminism's
// run so the two tests cross-check each other.
func goldenRun() camps.RunConfig {
	rc := camps.RunConfig{
		Scheme:       camps.CAMPSMOD,
		WarmupRefs:   2_000,
		MeasureInstr: 30_000,
		Seed:         42,
	}
	mix, _ := camps.MixByID("MX1")
	rc.Mix = mix
	return rc
}

// TestSameSeedExportByteIdentical asserts the determinism contract at the
// export layer: two runs of the same seed must marshal to byte-identical
// JSON, and that JSON must match the committed golden snapshot. The
// second run sets Workers: 2, which pins that the field is ignored (the
// benchmark's fingerprint check compares a Workers=2 run against serial
// ones). The golden
// was captured after the sim.NewClock rational-period fix (the old
// truncated 333 ps period ran the 3 GHz core at 3.003 GHz, so every
// pre-fix timing number was slightly off); any future behaviour change —
// intended or not — must update it deliberately:
//
//	UPDATE_GOLDEN=1 go test -run TestSameSeedExportByteIdentical .
func TestSameSeedExportByteIdentical(t *testing.T) {
	rc := goldenRun()
	a, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	rc2 := rc
	rc2.Workers = 2
	b, err := camps.RunContext(context.Background(), rc2)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same-seed runs exported different JSON:\nrun A:\n%s\nrun B:\n%s", aj, bj)
	}
	if a.EventsFired == 0 || a.EventsFired != b.EventsFired {
		t.Fatalf("EventsFired not deterministic: %d vs %d", a.EventsFired, b.EventsFired)
	}

	golden := filepath.Join("testdata", "golden_mx1_campsmod.json")
	want := append(aj, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	have, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("export differs from committed golden %s.\nIf the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1.\ngolden:\n%s\ngot:\n%s",
			golden, have, want)
	}
}
