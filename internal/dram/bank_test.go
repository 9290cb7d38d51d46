package dram

import (
	"math/rand"
	"testing"

	"camps/internal/config"
	"camps/internal/sim"
)

func testTiming() Timing {
	cfg := config.Default()
	return NewTiming(cfg.HMC.Timing, cfg.DRAMClock())
}

func TestNewTimingConversion(t *testing.T) {
	tm := testTiming()
	// DDR3-1600 bus clock: 1250 ps/cycle, tRCD = 11 cycles.
	if tm.RCD != 13750 {
		t.Fatalf("RCD = %v ps, want 13750", tm.RCD)
	}
	if tm.RP != tm.RCD || tm.CL != tm.RCD {
		t.Fatalf("tRP/tCL should equal tRCD per Table I: %v %v %v", tm.RCD, tm.RP, tm.CL)
	}
	if tm.BL != 5000 {
		t.Fatalf("BL = %v, want 4 cycles = 5000 ps", tm.BL)
	}
}

func TestBankActivateReadPrecharge(t *testing.T) {
	b := NewBank(testTiming())
	tm := testTiming()
	if b.IsOpen() {
		t.Fatal("new bank should be precharged")
	}
	if b.Classify(5) != RowMiss {
		t.Fatal("closed bank should classify as miss")
	}

	ready := b.Activate(0, 5)
	if ready != tm.RCD {
		t.Fatalf("row ready at %v, want %v", ready, tm.RCD)
	}
	if !b.IsOpen() || b.OpenRow() != 5 {
		t.Fatal("row 5 should be open")
	}
	if b.Classify(5) != RowHit || b.Classify(6) != RowConflict {
		t.Fatal("classification after ACT wrong")
	}

	done := b.Read(ready)
	if done != ready+tm.CL+tm.BL {
		t.Fatalf("read done at %v, want %v", done, ready+tm.CL+tm.BL)
	}

	// tRAS dominates: precharge is not legal before ACT+tRAS.
	if b.EarliestPrecharge() < tm.RAS {
		t.Fatalf("earliest PRE %v violates tRAS %v", b.EarliestPrecharge(), tm.RAS)
	}
	preAt := b.EarliestPrecharge()
	actReady := b.Precharge(preAt)
	if actReady != preAt+tm.RP {
		t.Fatalf("bank ready at %v, want %v", actReady, preAt+tm.RP)
	}
	if b.IsOpen() {
		t.Fatal("bank should be closed after PRE")
	}
	if b.EarliestActivate() != actReady {
		t.Fatalf("earliest ACT %v, want %v", b.EarliestActivate(), actReady)
	}
	ops := b.Ops()
	if ops.Activates != 1 || ops.Reads != 1 || ops.Precharges != 1 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestBankWriteRecovery(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	ready := b.Activate(0, 1)
	end := b.Write(ready)
	if end != ready+tm.CWL+tm.BL {
		t.Fatalf("write end = %v, want %v", end, ready+tm.CWL+tm.BL)
	}
	if b.EarliestPrecharge() != end+tm.WR {
		t.Fatalf("earliest PRE after write = %v, want %v", b.EarliestPrecharge(), end+tm.WR)
	}
}

func TestBankColumnToColumn(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	ready := b.Activate(0, 1)
	b.Read(ready)
	if b.EarliestColumn() != ready+tm.CCD {
		t.Fatalf("tCCD not enforced: next col %v, want %v", b.EarliestColumn(), ready+tm.CCD)
	}
}

func TestBankFetchRow(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	ready := b.Activate(0, 9)
	end := b.FetchRow(ready, 16)
	want := ready + tm.CL + 16*tm.BL
	if end != want {
		t.Fatalf("row fetch end = %v, want %v", end, want)
	}
	if b.Ops().RowFetches != 1 {
		t.Fatal("row fetch not counted")
	}
	// Row fetch holds the column path until it completes.
	if b.EarliestColumn() != end {
		t.Fatalf("column free at %v, want %v", b.EarliestColumn(), end)
	}
	// CAMPS precharges after a fetch; must be legal at max(end, tRAS).
	preAt := b.EarliestPrecharge()
	if preAt < end {
		t.Fatalf("PRE legal at %v before fetch completes at %v", preAt, end)
	}
	b.Precharge(preAt)
}

func TestBankStoreRow(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	ready := b.Activate(0, 3)
	end := b.StoreRow(ready, 16)
	want := ready + tm.CWL + 16*tm.BL
	if end != want {
		t.Fatalf("row store end = %v, want %v", end, want)
	}
	if b.EarliestPrecharge() != end+tm.WR {
		t.Fatal("write recovery not enforced after row store")
	}
	if b.Ops().RowStores != 1 {
		t.Fatal("row store not counted")
	}
}

func TestBankRefresh(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	ready := b.Refresh(0)
	if ready != tm.RFC {
		t.Fatalf("refresh ready at %v, want %v", ready, tm.RFC)
	}
	if b.EarliestActivate() != tm.RFC {
		t.Fatal("ACT should wait for tRFC")
	}
	b.Activate(tm.RFC, 1)
}

func TestBankIllegalCommandsPanic(t *testing.T) {
	tm := testTiming()
	cases := []struct {
		name string
		fn   func(b *Bank)
	}{
		{"ACT on open bank", func(b *Bank) { b.Activate(0, 1); b.Activate(b.EarliestActivate(), 2) }},
		{"ACT in the past", func(b *Bank) {
			b.Activate(0, 1)
			b.Precharge(b.EarliestPrecharge())
			b.Activate(0, 2)
		}},
		{"PRE on closed bank", func(b *Bank) { b.Precharge(0) }},
		{"PRE before tRAS", func(b *Bank) { b.Activate(0, 1); b.Precharge(1) }},
		{"RD on closed bank", func(b *Bank) { b.Read(0) }},
		{"RD before tRCD", func(b *Bank) { b.Activate(0, 1); b.Read(1) }},
		{"WR on closed bank", func(b *Bank) { b.Write(0) }},
		{"REF on open bank", func(b *Bank) { b.Activate(0, 1); b.Refresh(tm.RAS * 2) }},
		{"fetch zero lines", func(b *Bank) { r := b.Activate(0, 1); b.FetchRow(r, 0) }},
		{"store zero lines", func(b *Bank) { r := b.Activate(0, 1); b.StoreRow(r, 0) }},
		{"negative row", func(b *Bank) { b.Activate(0, -2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			b := NewBank(tm)
			tc.fn(&b)
		})
	}
}

func TestOpsAdd(t *testing.T) {
	a := Ops{Activates: 1, Reads: 2, RowFetches: 3}
	a.Add(Ops{Activates: 10, Writes: 5, Refreshes: 7, Precharges: 2, RowStores: 1})
	if a.Activates != 11 || a.Reads != 2 || a.Writes != 5 || a.RowFetches != 3 ||
		a.Refreshes != 7 || a.Precharges != 2 || a.RowStores != 1 {
		t.Fatalf("Ops.Add wrong: %+v", a)
	}
}

func TestRowStateString(t *testing.T) {
	if RowHit.String() != "hit" || RowMiss.String() != "miss" || RowConflict.String() != "conflict" {
		t.Fatal("RowState strings wrong")
	}
	if RowState(99).String() != "unknown" {
		t.Fatal("unknown RowState string wrong")
	}
}

// Property: a random but legality-respecting command stream never panics and
// keeps earliest-issue times monotonically nondecreasing.
func TestBankRandomLegalStream(t *testing.T) {
	tm := testTiming()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b := NewBank(tm)
		now := sim.Time(0)
		for step := 0; step < 500; step++ {
			if b.IsOpen() {
				switch rng.Intn(5) {
				case 0:
					at := maxTime(now, b.EarliestPrecharge())
					now = b.Precharge(at)
				case 1, 2:
					at := maxTime(now, b.EarliestColumn())
					now = b.Read(at)
				case 3:
					at := maxTime(now, b.EarliestColumn())
					now = b.Write(at)
				case 4:
					at := maxTime(now, b.EarliestColumn())
					now = b.FetchRow(at, 16)
				}
			} else {
				if rng.Intn(8) == 0 {
					at := maxTime(now, b.EarliestActivate())
					now = b.Refresh(at)
				} else {
					at := maxTime(now, b.EarliestActivate())
					now = b.Activate(at, int64(rng.Intn(128)))
				}
			}
		}
		ops := b.Ops()
		if ops.Activates == 0 {
			t.Fatal("random stream never activated")
		}
		// Every PRE must pair with a prior ACT.
		if ops.Precharges > ops.Activates {
			t.Fatalf("more precharges (%d) than activates (%d)", ops.Precharges, ops.Activates)
		}
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
