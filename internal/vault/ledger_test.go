package vault

import (
	"testing"

	"camps/internal/fault"
	"camps/internal/obs"
	"camps/internal/pfbuffer"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// TestLedgerClassifiesEveryRow: every prefetched row gets exactly one
// efficacy verdict — timely use, late use, or pollution — whether it
// leaves the buffer by replacement or by Flush, or is poisoned on
// arrival, and the verdicts land under the vault's own id.
func TestLedgerClassifiesEveryRow(t *testing.T) {
	cfg := smallCfg()
	cfg.PFBuffer.SizeBytes = 2 << 10 // two rows: replacement after the second
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	c := New(eng, cfg, prefetch.Base, 7)
	suite := obs.NewSuite(0)
	suite.EnableAttribution("TEST")
	c.AttachAttribution(nil, suite.Ledger)
	row := func(r int64) pfbuffer.RowID { return pfbuffer.RowID{Bank: 0, Row: r} }

	// Row 1 is used before any demand queued for it: timely.
	c.insertFetched(row(1), 0, 0)
	c.buffer.Lookup(row(1), 0, false, 10)
	// Row 2 lost the race to a queued demand, then served it: late.
	c.insertFetched(row(2), 0, 0)
	c.buffer.MarkLate(row(2))
	c.buffer.Lookup(row(2), 1, false, 20)
	// Rows 3-5 are never used. Each insert replaces one resident row, and
	// Flush drains the last two.
	for r := int64(3); r <= 5; r++ {
		c.insertFetched(row(r), 0, 0)
	}
	// Row 6 arrives poisoned and is discarded before it is resident.
	c.SetFaults(fault.NewInjector(fault.Spec{PoisonRate: 1}, 1).Vault(7, cfg.HMC.Banks()))
	c.insertFetched(row(6), 0, 0)
	eng.Run()
	c.Flush()

	sum := suite.Attribution().Ledger
	if sum.UsefulTimely != 1 || sum.UsefulLate != 1 || sum.EvictedUnused != 4 {
		t.Errorf("timely/late/unused = %d/%d/%d, want 1/1/4", sum.UsefulTimely, sum.UsefulLate, sum.EvictedUnused)
	}
	if len(sum.Vaults) != 1 || sum.Vaults[0].Vault != 7 {
		t.Fatalf("vault rows = %+v, want exactly vault 7", sum.Vaults)
	}
	bs := c.BufferStats()
	if sum.Classified() != bs.Evictions+bs.RowsPoisoned {
		t.Errorf("classified %d outcomes; buffer evicted %d rows and discarded %d poisoned",
			sum.Classified(), bs.Evictions, bs.RowsPoisoned)
	}
}

// TestLedgerMarkLateAbsentRow: marking a row late before it is resident
// leaves its later use timely.
func TestLedgerMarkLateAbsentRow(t *testing.T) {
	eng, c := newVault(t, smallCfg(), prefetch.Base)
	suite := obs.NewSuite(0)
	suite.EnableAttribution("TEST")
	c.AttachAttribution(nil, suite.Ledger)
	id := pfbuffer.RowID{Bank: 0, Row: 1}
	c.buffer.MarkLate(pfbuffer.RowID{Bank: 0, Row: 9})
	c.insertFetched(id, 0, 0)
	c.buffer.Lookup(id, 0, false, 5)
	eng.Run()
	c.Flush()
	if got := suite.Attribution().Ledger.UsefulTimely; got != 1 {
		t.Errorf("useful_timely = %d, want 1 (MarkLate on absent row leaked)", got)
	}
}
