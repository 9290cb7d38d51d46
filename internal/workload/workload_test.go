package workload

import (
	"errors"
	"testing"

	"camps/internal/trace"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, name := range Names() {
		b, ok := benchmarks[name]
		if !ok {
			t.Fatalf("benchmark %q listed but missing", name)
		}
		if err := b.Profile.Validate(); err != nil {
			t.Errorf("benchmark %s: %v", name, err)
		}
		if b.Profile.Name != name {
			t.Errorf("benchmark %s: profile name %q mismatched", name, b.Profile.Name)
		}
	}
	if len(Names()) != 15 {
		t.Fatalf("benchmark table has %d entries, want 15 (Table II)", len(Names()))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := GetAny("perlbench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMixesMatchTableII(t *testing.T) {
	ms := Mixes()
	if len(ms) != 12 {
		t.Fatalf("mix count = %d, want 12", len(ms))
	}
	wantIDs := []string{"HM1", "HM2", "HM3", "HM4", "LM1", "LM2", "LM3", "LM4", "MX1", "MX2", "MX3", "MX4"}
	for i, m := range ms {
		if m.ID != wantIDs[i] {
			t.Errorf("mix %d = %s, want %s", i, m.ID, wantIDs[i])
		}
		if len(m.Benchmarks) != 8 {
			t.Errorf("mix %s has %d cores, want 8", m.ID, len(m.Benchmarks))
		}
		for _, b := range m.Benchmarks {
			if _, ok := benchmarks[b]; !ok {
				t.Errorf("mix %s references unknown benchmark %s", m.ID, b)
			}
		}
	}
	// Spot-check exact rows against the paper's table.
	hm1, _ := MixByID("HM1")
	want := []string{"bwaves", "gems", "gcc", "lbm", "bwaves", "gcc", "lbm", "gems"}
	for i := range want {
		if hm1.Benchmarks[i] != want[i] {
			t.Fatalf("HM1 = %v, want %v", hm1.Benchmarks, want)
		}
	}
	mx3, _ := MixByID("MX3")
	want = []string{"milc", "lbm", "wrf", "bzip2", "lbm", "bzip2", "milc", "wrf"}
	for i := range want {
		if mx3.Benchmarks[i] != want[i] {
			t.Fatalf("MX3 = %v, want %v", mx3.Benchmarks, want)
		}
	}
}

func TestMixClassesAreConsistent(t *testing.T) {
	for _, m := range Mixes() {
		hm, lm := 0, 0
		for _, name := range m.Benchmarks {
			b := benchmarks[name]
			if b.Class == HighIntensity {
				hm++
			} else {
				lm++
			}
		}
		switch m.ID[:2] {
		case "HM":
			if hm != 8 {
				t.Errorf("%s should be all HM, got %d HM / %d LM", m.ID, hm, lm)
			}
		case "LM":
			if lm != 8 {
				t.Errorf("%s should be all LM, got %d HM / %d LM", m.ID, hm, lm)
			}
		case "MX":
			if hm != 4 || lm != 4 {
				t.Errorf("%s should be 4 HM + 4 LM, got %d HM / %d LM", m.ID, hm, lm)
			}
		default:
			t.Errorf("unexpected group %q", m.ID[:2])
		}
	}
}

func TestMixByIDUnknown(t *testing.T) {
	if _, err := MixByID("ZZ9"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestGeneratorsPartitionAddressSpace(t *testing.T) {
	m, _ := MixByID("MX1")
	gens, err := m.Generators(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 8 {
		t.Fatalf("generators = %d, want 8", len(gens))
	}
	for core, g := range gens {
		lo := uint64(core) * CoreRegion
		hi := lo + CoreRegion
		for i := 0; i < 2000; i++ {
			rec, _ := g.Next()
			if rec.Addr < lo || rec.Addr >= hi {
				t.Fatalf("core %d address %#x outside its region [%#x,%#x)", core, rec.Addr, lo, hi)
			}
		}
	}
}

func TestSameBenchmarkDifferentCoresDiverge(t *testing.T) {
	m, _ := MixByID("HM1") // bwaves on cores 0 and 4
	gens, err := m.Generators(7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := gens[0].Next()
	b, _ := gens[4].Next()
	// Relative offsets within each core region must differ (the streams
	// are decorrelated by the per-core sub-seed).
	offA := a.Addr % CoreRegion
	offB := b.Addr % CoreRegion
	same := 0
	for i := 0; i < 100; i++ {
		ra, _ := gens[0].Next()
		rb, _ := gens[4].Next()
		if ra.Addr%CoreRegion == rb.Addr%CoreRegion {
			same++
		}
	}
	if offA == offB && same > 50 {
		t.Fatal("identical benchmark instances produced correlated streams")
	}
}

func TestGeneratorsDeterministicAcrossCalls(t *testing.T) {
	m, _ := MixByID("LM2")
	g1, _ := m.Generators(99)
	g2, _ := m.Generators(99)
	for core := range g1 {
		for i := 0; i < 500; i++ {
			a, _ := g1[core].Next()
			b, _ := g2[core].Next()
			if a != b {
				t.Fatalf("core %d diverged at %d", core, i)
			}
		}
	}
}

func TestFootprintsMatchIntensityClasses(t *testing.T) {
	// HM benchmarks must vastly exceed a core's shared-L3 slice (2 MiB);
	// LM benchmarks must be within an order of magnitude of it.
	for _, name := range Names() {
		b := benchmarks[name]
		if b.Class == HighIntensity && b.Profile.FootprintBytes < 64*mib {
			t.Errorf("%s: HM footprint %d too small to defeat the L3", name, b.Profile.FootprintBytes)
		}
		if b.Class == LowIntensity && b.Profile.FootprintBytes > 16*mib {
			t.Errorf("%s: LM footprint %d too large to be low-intensity", name, b.Profile.FootprintBytes)
		}
	}
}

func TestClassString(t *testing.T) {
	if HighIntensity.String() != "HM" || LowIntensity.String() != "LM" {
		t.Fatal("class strings wrong")
	}
}

func TestMixGenerationFitsCube(t *testing.T) {
	// 8 cores x 512MiB regions = exactly the 4 GiB cube.
	var _ = trace.Profile{}
	if 8*CoreRegion != 4<<30 {
		t.Fatalf("core regions (%d) do not tile the 4GiB cube", 8*CoreRegion)
	}
	for _, name := range Names() {
		b := benchmarks[name]
		if b.Profile.FootprintBytes > CoreRegion {
			t.Errorf("%s footprint exceeds its core region", name)
		}
	}
}

func TestExtensionBenchmarksValidate(t *testing.T) {
	names := ExtensionNames()
	if len(names) != 4 {
		t.Fatalf("extension benchmarks = %v", names)
	}
	for _, name := range names {
		b, err := GetAny(name)
		if err != nil {
			t.Fatalf("GetAny(%q): %v", name, err)
		}
		if err := b.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Extensions must not leak into the Table II set.
		if _, ok := benchmarks[name]; ok {
			t.Errorf("%s leaked into the paper's benchmark table", name)
		}
	}
	// GetAny still resolves Table II names.
	if _, err := GetAny("mcf"); err != nil {
		t.Fatal("GetAny lost the Table II set")
	}
	if _, err := GetAny("nope"); err == nil {
		t.Fatal("GetAny accepted unknown name")
	}
}

func TestExtensionMixesRunnable(t *testing.T) {
	ms := ExtensionMixes()
	if len(ms) != 2 {
		t.Fatalf("extension mixes = %v", ms)
	}
	for _, m := range ms {
		if len(m.Benchmarks) != 8 {
			t.Fatalf("%s has %d cores", m.ID, len(m.Benchmarks))
		}
		gens, err := m.Generators(3)
		if err != nil {
			t.Fatalf("%s: %v", m.ID, err)
		}
		for _, g := range gens {
			if _, err := g.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := AnyMixByID("DC1"); err != nil {
		t.Fatal("AnyMixByID lost DC1")
	}
	if _, err := AnyMixByID("HM1"); err != nil {
		t.Fatal("AnyMixByID lost Table II mixes")
	}
	if _, err := AnyMixByID("ZZ"); err == nil {
		t.Fatal("AnyMixByID accepted unknown mix")
	}
	// Table II stays exactly twelve mixes.
	if len(Mixes()) != 12 {
		t.Fatal("extension mixes leaked into Table II")
	}
}

func TestUnknownMixTypedError(t *testing.T) {
	for _, lookup := range []func(string) (Mix, error){MixByID, AnyMixByID} {
		_, err := lookup("ZZ9")
		if err == nil {
			t.Fatal("lookup of bogus mix succeeded")
		}
		if !errors.Is(err, ErrUnknownMix) {
			t.Fatalf("error %v does not match ErrUnknownMix", err)
		}
		var ume *UnknownMixError
		if !errors.As(err, &ume) || ume.ID != "ZZ9" {
			t.Fatalf("error %v does not carry the identifier", err)
		}
		if got, want := err.Error(), `workload: unknown mix "ZZ9"`; got != want {
			t.Fatalf("message changed: %q, want %q", got, want)
		}
	}
	if _, err := MixByID("HM1"); err != nil {
		t.Fatalf("HM1 lookup failed: %v", err)
	}
}
