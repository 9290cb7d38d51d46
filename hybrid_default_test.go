package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"camps"
)

// hybridAllCandidates is the hybrid engine's former default candidate
// list.
var hybridAllCandidates = []string{"MMD", "CAMPS", "CAMPS-MOD", "ghb", "sisb", "bestoffset"}

// TestHybridDefaultMatchesAllCandidates pins the claim behind the hybrid
// engine's default candidate list: CAMPS-MOD, ghb, sisb and bestoffset are
// never elected, and a candidate that never wins cannot change a run
// (its engine state and shadow slots are private, and only the winner
// fetches or owns rows). So the default {MMD, CAMPS} duel and the
// six-candidate duel give byte-identical Results on every mix, two seeds
// clean, and three mixes under bank blackouts.
func TestHybridDefaultMatchesAllCandidates(t *testing.T) {
	if got, want := camps.DefaultSystem().Hybrid.Candidates, []string{"MMD", "CAMPS"}; !slices.Equal(got, want) {
		t.Fatalf("default hybrid candidates = %q, want %q", got, want)
	}
	blackout, err := camps.ParseFaultSpec("bankfail=100us,bankfor=5us")
	if err != nil {
		t.Fatal(err)
	}
	var runs []camps.RunConfig
	for _, mix := range camps.Mixes() {
		for _, seed := range []uint64{1, 2} {
			runs = append(runs, camps.RunConfig{Mix: mix, Seed: seed})
		}
	}
	for _, id := range []string{"HM1", "MX1", "LM2"} {
		mix, err := camps.MixByID(id)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, camps.RunConfig{Mix: mix, Seed: 1, Faults: blackout})
	}
	all := camps.DefaultSystem()
	all.Hybrid.Candidates = hybridAllCandidates
	for _, rc := range runs {
		rc.Scheme = camps.HYBRID
		rc.WarmupRefs = 2_000
		rc.MeasureInstr = 20_000
		name := fmt.Sprintf("%s/seed%d", rc.Mix.ID, rc.Seed)
		if rc.Faults.Enabled() {
			name += "/blackout"
		}
		got := runJSON(t, name, rc)
		rc.System = all
		want := runJSON(t, name, rc)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Results differ between the default and the six-candidate duel", name)
		}
	}
}

// runJSON runs rc and returns its Results as JSON. A run with faults
// enabled must see at least one bank blackout.
func runJSON(t *testing.T, name string, rc camps.RunConfig) []byte {
	t.Helper()
	res, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rc.Faults.Enabled() && (res.Faults == nil || res.Faults.BankBlackouts == 0) {
		t.Fatalf("%s: no bank blackout fired", name)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}
