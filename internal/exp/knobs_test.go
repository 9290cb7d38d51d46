package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"camps"
	"camps/internal/workload"
)

// knobRuns names, for every knob, a scheme whose runs read it and a value
// away from the Table I default.
var knobRuns = map[string]struct {
	scheme camps.Scheme
	value  int64
}{
	"buffer":       {camps.CAMPSMOD, 4},
	"window":       {camps.BASE, 2},
	"tsv":          {camps.CAMPSMOD, 1},
	"vaults":       {camps.BASE, 64},
	"mshrs":        {camps.BASE, 2},
	"port":         {camps.BASE, 1},
	"l2pf":         {camps.BASE, 4},
	"mmd.degree":   {camps.MMD, 1},
	"mmd.epoch":    {camps.MMD, 16},
	"ct":           {camps.CAMPSMOD, 2},
	"threshold":    {camps.CAMPSMOD, 1},
	"ghb.width":    {camps.GHB, 1},
	"ghb.degree":   {camps.GHB, 1},
	"sisb.entries": {camps.SISB, 16},
	"sisb.degree":  {camps.SISB, 1},
	"bo.rounds":    {camps.BESTOFFSET, 1},
	"bo.rr":        {camps.BESTOFFSET, 4},
	"hybrid.epoch": {camps.HYBRID, 16},
}

// TestKnobTable pins the sweepable dimensions campsweep -list prints,
// checks that every knob moves the configuration, each differently (so no
// knob is wired to another's field), and that every knob moves a short HM1
// run's Results under a scheme that reads it: a knob whose config field
// nothing reads would sweep identical rows.
func TestKnobTable(t *testing.T) {
	want := []string{
		"bo.rounds", "bo.rr", "buffer", "ct", "ghb.degree", "ghb.width",
		"hybrid.epoch", "l2pf", "mmd.degree", "mmd.epoch", "mshrs", "port",
		"sisb.degree", "sisb.entries", "threshold", "tsv", "vaults", "window",
	}
	knobs := Knobs()
	var names []string
	for n, k := range knobs {
		if k.Name != n || k.Help == "" || k.Apply == nil {
			t.Errorf("knob %q = {Name %q, Help %q, Apply set %v}", n, k.Name, k.Help, k.Apply != nil)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("knobs = %q, want %q", names, want)
	}
	if len(knobTable) != len(want) {
		t.Errorf("knobTable has %d entries for %d names: a name is duplicated", len(knobTable), len(want))
	}
	applied := make([]camps.SystemConfig, len(want))
	for i, n := range want {
		applied[i] = camps.DefaultSystem()
		knobs[n].Apply(&applied[i], 7)
		if reflect.DeepEqual(applied[i], camps.DefaultSystem()) {
			t.Errorf("%s.Apply(7) left the default config unchanged", n)
		}
		for j := 0; j < i; j++ {
			if reflect.DeepEqual(applied[i], applied[j]) {
				t.Errorf("%s and %s produce the same config", want[j], n)
			}
		}
	}

	mix, err := workload.MixByID("HM1")
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	base := make(map[camps.Scheme]int) // scheme -> index of its default run
	for _, n := range want {
		r, ok := knobRuns[n]
		if !ok {
			t.Fatalf("knob %q has no entry in knobRuns", n)
		}
		if _, ok := base[r.scheme]; !ok {
			base[r.scheme] = len(cells)
			cells = append(cells, Cell{Mix: mix, Scheme: r.scheme, Seed: 1})
		}
		apply := knobs[n].Apply
		cells = append(cells, Cell{Mix: mix, Scheme: r.scheme, Seed: 1, Knob: n, Value: r.value,
			Apply: func(sys *camps.SystemConfig) { apply(sys, r.value) }})
	}
	out, _, err := Run(context.Background(), cells, Options{
		MeasureInstr: 20_000, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]byte, len(out))
	for i, cr := range out {
		if results[i], err = json.Marshal(cr.Results); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cells {
		if c.Knob != "" && bytes.Equal(results[i], results[base[c.Scheme]]) {
			t.Errorf("%s=%d left the %v run's Results unchanged", c.Knob, c.Value, c.Scheme)
		}
	}
}
