package camps_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"camps"
	"camps/internal/config"
)

// digestCase is one pinned run of TestExportDigestsGolden.
type digestCase struct {
	name string
	rc   camps.RunConfig
}

// digestCases covers every registered engine on HM1 plus the scheduler
// modes the default configuration does not reach: closed-page rows,
// FCFS ordering, a bounded TSV data path, and bank blackouts (a fault
// site on every vault, which forces the scheduler's full bank scan).
func digestCases(t *testing.T) []digestCase {
	base := func(mixID string, s camps.Scheme) camps.RunConfig {
		mix, err := camps.MixByID(mixID)
		if err != nil {
			t.Fatal(err)
		}
		return camps.RunConfig{Scheme: s, Mix: mix, WarmupRefs: 2_000, MeasureInstr: 5_000, Seed: 42}
	}
	var cases []digestCase
	for _, s := range camps.AllSchemes() {
		cases = append(cases, digestCase{"HM1/" + s.String(), base("HM1", s)})
	}
	closed := base("MX1", camps.CAMPSMOD)
	closed.System = camps.DefaultSystem()
	closed.System.HMC.PagePolicy = config.ClosedPage
	fcfs := base("MX1", camps.CAMPSMOD)
	fcfs.System = camps.DefaultSystem()
	fcfs.System.HMC.Scheduler = config.FCFS
	tsv := base("MX1", camps.CAMPSMOD)
	tsv.System = camps.DefaultSystem()
	tsv.System.HMC.TSVGBps = 10
	blackout := base("HM1", camps.CAMPSMOD)
	spec, err := camps.ParseFaultSpec("bankfail=2us,bankfor=500ns,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	blackout.Faults = spec
	return append(cases,
		digestCase{"MX1/CAMPS-MOD/closed-page", closed},
		digestCase{"MX1/CAMPS-MOD/fcfs", fcfs},
		digestCase{"MX1/CAMPS-MOD/tsv-10GBps", tsv},
		digestCase{"HM1/CAMPS-MOD/blackout", blackout},
	)
}

// TestExportDigestsGolden pins the sha256 of each case's JSON Results in
// testdata/golden_digests.json. It guards hot-path rewrites of the vault
// scheduler and the caches: any change to event order, timing or any
// exported metric changes a digest. Regenerate only for an intended
// behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestExportDigestsGolden .
func TestExportDigestsGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range digestCases(t) {
		res, err := camps.RunContext(context.Background(), c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.rc.Faults.Enabled() && (res.Faults == nil || res.Faults.BankBlackouts == 0) {
			t.Fatalf("%s: no bank blackout fired; the case must exercise one", c.name)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out)
		got[c.name] = hex.EncodeToString(sum[:])
	}
	want, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	golden := filepath.Join("testdata", "golden_digests.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	have, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden digests (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(have, want) {
		return
	}
	var pinned map[string]string
	if err := json.Unmarshal(have, &pinned); err != nil {
		t.Fatalf("corrupt %s: %v", golden, err)
	}
	for name, sum := range got {
		if pinned[name] != sum {
			t.Errorf("%s: export digest %s, golden %s", name, sum, pinned[name])
		}
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned in the golden but no longer run", name)
		}
	}
}
