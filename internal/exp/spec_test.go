package exp

import (
	"reflect"
	"strings"
	"testing"

	"camps"
	"camps/internal/workload"
)

// cellKeys returns the cells' keys in order.
func cellKeys(cells []Cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}

// TestSpecExpandMatchesGrid: a spec's cells are Grid's cells in Grid's
// order, each crossed with the knob values innermost, and the knob's
// Apply sets each cell's own value.
func TestSpecExpandMatchesGrid(t *testing.T) {
	spec := Spec{
		Mixes: []string{"HM1", "LM2"}, Schemes: []string{"BASE", "CAMPS-MOD"},
		Seeds: []uint64{3, 1}, Knob: "ct", Values: []int64{8, 64},
	}
	cells, _, err := spec.Expand(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mixes []workload.Mix
	for _, id := range spec.Mixes {
		m, _ := workload.MixByID(id)
		mixes = append(mixes, m)
	}
	var want []string
	for _, c := range Grid(mixes, []camps.Scheme{camps.BASE, camps.CAMPSMOD}, spec.Seeds) {
		for _, v := range spec.Values {
			c.Knob, c.Value = "ct", v
			want = append(want, c.Key())
		}
	}
	if got := cellKeys(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys =\n%q\nwant\n%q", got, want)
	}
	if n := spec.CellCount(); n != len(cells) {
		t.Errorf("CellCount = %d, expanded %d cells", n, len(cells))
	}
	for _, c := range cells {
		sys := camps.DefaultSystem()
		c.Apply(&sys)
		if int64(sys.CAMPS.CTEntries) != c.Value {
			t.Fatalf("%s: Apply set CTEntries = %d", c.Key(), sys.CAMPS.CTEntries)
		}
	}

	// Without a knob the spec is exactly the grid.
	spec.Knob, spec.Values = "", nil
	cells, _, err = spec.Expand(Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid(mixes, []camps.Scheme{camps.BASE, camps.CAMPSMOD}, spec.Seeds)
	if got, want := cellKeys(cells), cellKeys(grid); !reflect.DeepEqual(got, want) {
		t.Fatalf("knobless keys = %q, want Grid's %q", got, want)
	}
	if cells[0].Apply != nil {
		t.Error("knobless cell has an Apply override")
	}
}

// TestSpecSeedsDefaultToOne: no seeds and a 0 seed both become seed 1,
// in the expansion and in the normalized spec.
func TestSpecSeedsDefaultToOne(t *testing.T) {
	for _, seeds := range [][]uint64{nil, {0}} {
		spec := Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS"}, Seeds: seeds}
		if n := spec.CellCount(); n != 1 {
			t.Errorf("seeds %v: CellCount = %d, want 1", seeds, n)
		}
		cells, _, err := spec.Expand(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cellKeys(cells); !reflect.DeepEqual(got, []string{"HM1/CAMPS/seed=1"}) {
			t.Errorf("seeds %v: keys = %q", seeds, got)
		}
		spec.NormalizeSeeds()
		if !reflect.DeepEqual(spec.Seeds, []uint64{1}) {
			t.Errorf("seeds %v normalize to %v, want [1]", seeds, spec.Seeds)
		}
	}
}

// TestSpecAcceptsExtensionMixes: a knob sweep over a DC mix expands like
// any Table II mix, so campsweep, which builds its sweep as a Spec, takes
// -mix DC1 as campsim and campserve do.
func TestSpecAcceptsExtensionMixes(t *testing.T) {
	spec := Spec{Mixes: []string{"DC1"}, Schemes: []string{"CAMPS-MOD"}, Knob: "ct", Values: []int64{16}}
	cells, _, err := spec.Expand(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cellKeys(cells); !reflect.DeepEqual(got, []string{"DC1/CAMPS-MOD/seed=1/ct=16"}) {
		t.Fatalf("keys = %q", got)
	}
}

// TestSpecFillsOptions: Expand sets the run lengths, the parsed fault
// environment and the invariant checker, and keeps every other option.
func TestSpecFillsOptions(t *testing.T) {
	spec := Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS"},
		Instr: 5_000, Warmup: 700, Faults: "linkcrc=1e-3,seed=9", Check: true}
	_, o, err := spec.Expand(Options{Parallelism: 3, Checkpoint: "c.jsonl", MeasureInstr: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults, err := camps.ParseFaultSpec(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if o.MeasureInstr != 5_000 || o.WarmupRefs != 700 || !o.CheckInvariants ||
		!reflect.DeepEqual(o.Faults, faults) {
		t.Errorf("options = instr %d warmup %d check %v faults %+v",
			o.MeasureInstr, o.WarmupRefs, o.CheckInvariants, o.Faults)
	}
	if o.Parallelism != 3 || o.Checkpoint != "c.jsonl" {
		t.Errorf("caller's options lost: parallelism %d checkpoint %q", o.Parallelism, o.Checkpoint)
	}
}

// TestSpecRejects: every malformed shape fails Validate and Expand with
// the error text campserve's clients see.
func TestSpecRejects(t *testing.T) {
	ok := Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS"}}
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"no mixes", func(s *Spec) { s.Mixes = nil }, "spec needs at least one mix"},
		{"no schemes", func(s *Spec) { s.Schemes = nil }, "spec needs at least one scheme"},
		{"unknown mix", func(s *Spec) { s.Mixes = []string{"HM1", "ZZ9"} }, `mix "ZZ9": `},
		{"unknown scheme", func(s *Spec) { s.Schemes = []string{"nope"} }, `scheme "nope": `},
		{"unknown knob", func(s *Spec) { s.Knob, s.Values = "l3size", []int64{1} }, `unknown knob "l3size"`},
		// readq set HMC.ReadQueue, which the vault controller never read.
		{"deleted readq knob", func(s *Spec) { s.Knob, s.Values = "readq", []int64{1, 32} }, `unknown knob "readq"`},
		{"knob without values", func(s *Spec) { s.Knob = "ct" }, "knob sweep needs values"},
		{"values without knob", func(s *Spec) { s.Values = []int64{8} }, "values without a knob"},
		{"bad faults", func(s *Spec) { s.Faults = "linkcrc=banana" }, "faults: "},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("base spec: %v", err)
	}
	for _, tc := range cases {
		spec := ok
		tc.edit(&spec)
		err := spec.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want prefix %q", tc.name, err, tc.want)
		}
		cells, _, err := spec.Expand(Options{})
		if err == nil || cells != nil {
			t.Errorf("%s: Expand = %d cells, err %v", tc.name, len(cells), err)
		}
	}
}
