package exp

import (
	"reflect"
	"sort"
	"testing"

	"camps"
)

// TestKnobTable pins the sweepable dimensions campsweep -list prints and
// checks that every knob moves the configuration, each differently.
func TestKnobTable(t *testing.T) {
	want := []string{
		"bo.rounds", "bo.rr", "buffer", "ct", "ghb.degree", "ghb.width",
		"hybrid.epoch", "l2pf", "mmd.degree", "mmd.epoch", "mshrs", "port",
		"readq", "sisb.degree", "sisb.entries", "threshold", "tsv", "vaults",
		"window",
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
}
