package fault

import (
	"errors"
	"strings"
	"testing"

	"camps/internal/obs"
	"camps/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "linkcrc=0.0001,stall=5e-05,stallfor=80000ps,poison=0.001,bankfail=200000000ps,seed=7"
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", in, err)
	}
	if s.LinkCRCRate != 1e-4 || s.VaultStallRate != 5e-5 || s.PoisonRate != 1e-3 {
		t.Fatalf("rates wrong: %+v", s)
	}
	if s.VaultStallTime != 80*sim.Nanosecond {
		t.Fatalf("stallfor = %v, want 80ns", s.VaultStallTime)
	}
	if s.BankFailPeriod != 200*sim.Microsecond {
		t.Fatalf("bankfail = %v, want 200us", s.BankFailPeriod)
	}
	if s.Seed != 7 {
		t.Fatalf("seed = %d, want 7", s.Seed)
	}
	// String renders back into the grammar and re-parses to the same spec.
	again, err := ParseSpec(s.String())
	if err != nil {
		t.Fatalf("ParseSpec(String()) = %v (text %q)", err, s.String())
	}
	if again != s {
		t.Fatalf("round trip changed spec:\n  in  %+v\n  out %+v", s, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"linkcrc",                  // not key=value
		"linkcrc=",                 // empty value
		"=0.5",                     // empty key
		"linkcrc=2",                // rate out of range
		"linkcrc=-0.1",             // negative rate
		"linkcrc=zebra",            // not a number
		"nope=1",                   // unknown key
		"stall=0.1,stall=0.2",      // duplicate key
		"stallfor=10xs",            // bad duration suffix
		"stallfor=-5ns",            // negative duration
		"bankfor=1us",              // bankfor without bankfail
		"bankfail=1us,bankfor=2us", // window longer than period
		"seed=-1",                  // seed not a uint
		"linkcrc=0.1,,stall=0.1",   // empty field
	}
	for _, c := range cases {
		if _, err := ParseSpec(c); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec(%q) = %v, want ErrBadSpec", c, err)
		}
	}
}

func TestParseSpecEmptyIsDisabled(t *testing.T) {
	for _, text := range []string{"", "  "} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if s.Enabled() {
			t.Fatalf("ParseSpec(%q).Enabled() = true", text)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"5", 5},
		{"5ps", 5},
		{"5ns", 5 * sim.Nanosecond},
		{"2.5us", 2500 * sim.Nanosecond},
		{"1ms", sim.Millisecond},
		{"0", 0},
	}
	for _, c := range cases {
		got, err := parseDuration(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestDefaults(t *testing.T) {
	s := Spec{LinkCRCRate: 0.1, BankFailPeriod: 1000}.withDefaults()
	if s.LinkMaxRetries != 3 {
		t.Errorf("default LinkMaxRetries = %d, want 3", s.LinkMaxRetries)
	}
	if s.VaultStallTime != 100*sim.Nanosecond {
		t.Errorf("default VaultStallTime = %v, want 100ns", s.VaultStallTime)
	}
	if s.BankFailDuration != 10 {
		t.Errorf("default BankFailDuration = %v, want period/100 = 10", s.BankFailDuration)
	}
}

// Identical seed and spec must reproduce the exact draw sequence at every
// site; a different run seed must (with overwhelming probability) differ.
func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{LinkCRCRate: 0.3, VaultStallRate: 0.3, PoisonRate: 0.3,
		BankFailPeriod: 1000 * sim.Nanosecond}
	draw := func(runSeed uint64) ([]int, []sim.Time, []bool, []sim.Time) {
		inj := NewInjector(spec, runSeed)
		link := inj.Link(2, 1)
		vault := inj.Vault(5, 8)
		var retries []int
		var stalls []sim.Time
		var poisons []bool
		var blocks []sim.Time
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * 10 * sim.Nanosecond
			retries = append(retries, link.PacketRetries(at))
			stalls = append(stalls, vault.StallDelay(at))
			poisons = append(poisons, vault.PoisonInsert(i%8, int64(i), at))
			blocks = append(blocks, vault.BankBlockedUntil(i%8, at))
		}
		return retries, stalls, poisons, blocks
	}
	r1, s1, p1, b1 := draw(42)
	r2, s2, p2, b2 := draw(42)
	for i := range r1 {
		if r1[i] != r2[i] || s1[i] != s2[i] || p1[i] != p2[i] || b1[i] != b2[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	r3, s3, p3, b3 := draw(43)
	same := true
	for i := range r1 {
		if r1[i] != r3[i] || s1[i] != s3[i] || p1[i] != p3[i] || b1[i] != b3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different run seeds produced identical schedules")
	}
}

// A nil injector and a zero-rate spec both inject nothing.
func TestInjectorDisabled(t *testing.T) {
	for name, inj := range map[string]*Injector{
		"nil":  nil,
		"zero": NewInjector(Spec{}, 1),
	} {
		link := inj.Link(0, 0)
		vault := inj.Vault(0, 4)
		for i := 0; i < 100; i++ {
			at := sim.Time(i) * sim.Nanosecond
			if link.PacketRetries(at) != 0 {
				t.Fatalf("%s: PacketRetries != 0", name)
			}
			if vault.StallDelay(at) != 0 {
				t.Fatalf("%s: StallDelay != 0", name)
			}
			if vault.PoisonInsert(0, 0, at) {
				t.Fatalf("%s: PoisonInsert = true", name)
			}
			if vault.BankBlockedUntil(0, at) != 0 {
				t.Fatalf("%s: BankBlockedUntil != 0", name)
			}
		}
		if inj.Counts() != (Counts{}) {
			t.Fatalf("%s: counts = %+v, want zero", name, inj.Counts())
		}
	}
}

func TestLinkRetriesBounded(t *testing.T) {
	inj := NewInjector(Spec{LinkCRCRate: 1, LinkMaxRetries: 2}, 1)
	link := inj.Link(0, 0)
	for i := 0; i < 50; i++ {
		if got := link.PacketRetries(0); got != 2 {
			t.Fatalf("PacketRetries with rate 1 = %d, want cap 2", got)
		}
	}
	c := inj.Counts()
	if c.LinkCRCErrors != 50 || c.LinkRetries != 100 {
		t.Fatalf("counts = %+v, want 50 errors / 100 retries", c)
	}
}

func TestBankWindowsArePureArithmetic(t *testing.T) {
	spec := Spec{BankFailPeriod: 1000, BankFailDuration: 100}
	inj := NewInjector(spec, 9)
	v := inj.Vault(0, 2)
	// Find the phase by scanning; then the window must repeat each period
	// and the answer must not depend on query frequency or order.
	var start sim.Time = -1
	for at := sim.Time(0); at < 2000; at++ {
		if v.BankBlockedUntil(0, at) != 0 {
			start = at
			break
		}
	}
	if start < 0 {
		t.Fatal("no blackout window found in two periods")
	}
	end := v.BankBlockedUntil(0, start)
	if end != start+100 {
		t.Fatalf("window end = %d, want start+duration = %d", end, start+100)
	}
	// Same query answered identically, later window found one period on.
	if again := v.BankBlockedUntil(0, start); again != end {
		t.Fatalf("repeat query changed answer: %d vs %d", again, end)
	}
	if next := v.BankBlockedUntil(0, start+1000); next != end+1000 {
		t.Fatalf("next window end = %d, want %d", next, end+1000)
	}
	// Each distinct window counted once despite repeated queries.
	if c := inj.Counts().BankBlackouts; c != 2 {
		t.Fatalf("BankBlackouts = %d, want 2", c)
	}
	// The other bank's phase differs (drawn from its own stream).
	if v.phase[0] == v.phase[1] {
		t.Fatal("two banks drew identical phases (suspicious keying)")
	}
}

func TestInstrumentCountsAndEvents(t *testing.T) {
	inj := NewInjector(Spec{PoisonRate: 1}, 1)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	inj.Instrument(reg, tr)
	v := inj.Vault(3, 4)
	if !v.PoisonInsert(1, 77, 500) {
		t.Fatal("PoisonInsert with rate 1 = false")
	}
	snap := reg.Snapshot("test", 0)
	got, ok := snap.Counters["fault.poisoned_rows"]
	if !ok {
		t.Fatal("fault.poisoned_rows not registered")
	}
	if got != 1 {
		t.Fatalf("fault.poisoned_rows = %d, want 1", got)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Type != obs.EvFaultPoison ||
		evs[0].Vault != 3 || evs[0].Bank != 1 || evs[0].Row != 77 {
		t.Fatalf("trace events = %+v", evs)
	}
	if !strings.Contains(obs.EvFaultPoison.String(), "fault") {
		t.Fatalf("event name %q lacks fault prefix", obs.EvFaultPoison.String())
	}
}

func TestGrammarMentionsEveryKey(t *testing.T) {
	g := Grammar()
	for _, k := range specKeys {
		if !strings.Contains(g, k.key) {
			t.Errorf("Grammar() missing key %q", k.key)
		}
	}
}
