package config

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.Processor.Cores != 8 || c.Processor.FreqMHz != 3000 || c.Processor.IssueWidth != 4 {
		t.Errorf("processor = %+v, want 8 cores @ 3GHz, width 4", c.Processor)
	}
	if c.L1.SizeBytes != 32<<10 || c.L1.Ways != 2 || c.L1.HitLatency != 2 {
		t.Errorf("L1 = %+v, want 32KB 2-way 2cyc", c.L1)
	}
	if c.L2.SizeBytes != 256<<10 || c.L2.Ways != 4 || c.L2.HitLatency != 6 {
		t.Errorf("L2 = %+v, want 256KB 4-way 6cyc", c.L2)
	}
	if c.L3.SizeBytes != 16<<20 || c.L3.Ways != 16 || c.L3.HitLatency != 20 || c.L3MSHRs != 64 {
		t.Errorf("L3 = %+v with %d MSHRs, want 16MB 16-way 20cyc with 64", c.L3, c.L3MSHRs)
	}
	if c.L3.LineBytes != 64 {
		t.Errorf("line = %d, want 64", c.L3.LineBytes)
	}
	if c.HMC.Vaults != 32 || c.HMC.Layers != 8 || c.HMC.BanksPerLayer != 2 {
		t.Errorf("HMC = %+v, want 32 vaults, 8 layers, 2 banks/layer", c.HMC)
	}
	if c.HMC.Banks() != 16 {
		t.Errorf("banks per vault = %d, want 16", c.HMC.Banks())
	}
	if c.HMC.RowBytes != 1024 {
		t.Errorf("row = %d, want 1KB", c.HMC.RowBytes)
	}
	tm := c.HMC.Timing
	if tm.TRCD != 11 || tm.TRP != 11 || tm.TCL != 11 {
		t.Errorf("timing = %+v, want tRCD=tRP=tCL=11", tm)
	}
	if c.HMC.ReadQueue != 32 || c.HMC.WriteQueue != 32 {
		t.Errorf("queues = %d/%d, want 32/32", c.HMC.ReadQueue, c.HMC.WriteQueue)
	}
	if c.Links.Count != 4 || c.Links.LanesPerDir != 16 {
		t.Errorf("links = %+v, want 4 links x 16 lanes", c.Links)
	}
	if c.PFBuffer.SizeBytes != 16<<10 || c.PFBuffer.Entries() != 16 || c.PFBuffer.HitLatency != 22 {
		t.Errorf("pfbuffer = %+v, want 16KB / 16 entries / 22cyc", c.PFBuffer)
	}
	if c.CAMPS.UtilThreshold != 4 || c.CAMPS.CTEntries != 32 {
		t.Errorf("CAMPS = %+v, want threshold 4, CT 32", c.CAMPS)
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestCapacity(t *testing.T) {
	c := Default()
	want := int64(4) << 30 // 32 vaults * 16 banks * 8192 rows * 1KB
	h := c.HMC
	if got := int64(h.Vaults) * int64(h.Banks()) * int64(h.RowsPerBank) * int64(h.RowBytes); got != want {
		t.Fatalf("capacity = %d, want %d", got, want)
	}
}

func TestLinesPerRow(t *testing.T) {
	if got := Default().LinesPerRow(); got != 16 {
		t.Fatalf("lines per row = %d, want 16", got)
	}
}

func TestLinkBandwidth(t *testing.T) {
	c := Default()
	// 16 lanes * 12 Gbps / 8 = 24 GB/s per direction.
	if got := c.Links.BytesPerSecond(); got != 24_000_000_000 {
		t.Fatalf("link bandwidth = %d B/s, want 24e9", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero cores", func(c *Config) { c.Processor.Cores = 0 }, "cores"},
		{"bad line", func(c *Config) { c.L1.LineBytes = 48 }, "line size"},
		{"mismatched lines", func(c *Config) { c.L2.LineBytes = 128 }, "match"},
		{"non-pow2 vaults", func(c *Config) { c.HMC.Vaults = 33 }, "vault"},
		{"row smaller than line", func(c *Config) { c.HMC.RowBytes = 32 }, ""},
		{"pf line mismatch", func(c *Config) { c.PFBuffer.LineBytes = 512 }, "prefetch buffer line"},
		{"refresh window", func(c *Config) { c.HMC.Timing.TREFI = 10 }, "tREFI"},
		{"zero threshold", func(c *Config) { c.CAMPS.UtilThreshold = 0 }, "threshold"},
		{"mmd thresholds", func(c *Config) { c.MMD.LowAccuracy = 0.9 }, "MMD"},
		{"zero queue", func(c *Config) { c.HMC.ReadQueue = 0 }, "queue"},
		{"zero L3 MSHRs", func(c *Config) { c.L3MSHRs = 0 }, "MSHR"},
		{"zero ghb width", func(c *Config) { c.GHB.Width = 0 }, "GHB"},
		{"zero sisb degree", func(c *Config) { c.SISB.Degree = 0 }, "SISB"},
		{"zero bo rounds", func(c *Config) { c.BestOffset.RoundMax = 0 }, "best-offset"},
		{"zero hybrid epoch", func(c *Config) { c.Hybrid.EpochRequests = 0 }, "hybrid"},
		{"line below word", func(c *Config) { c.L1.LineBytes, c.L2.LineBytes, c.L3.LineBytes = 4, 4, 4 }, "cache line too small"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken config")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Regression: prefetch.Fetch carries touched lines as a uint64 bitmap, so
// a geometry with more than 64 lines per row would silently truncate
// utilization tracking. Validate must reject it with a typed error.
func TestValidateRejectsOversizedLineBitmap(t *testing.T) {
	c := Default()
	c.HMC.RowBytes = 16384 // 256 lines of 64 bytes
	err := c.Validate()
	if err == nil {
		t.Fatal("Validate accepted 256 lines per row")
	}
	if !errors.Is(err, ErrLineBitmap) {
		t.Fatalf("error %q is not ErrLineBitmap", err)
	}
	// Exactly 64 lines still fits the bitmap.
	c = Default()
	c.HMC.RowBytes = 64 * c.L3.LineBytes
	if err := c.Validate(); errors.Is(err, ErrLineBitmap) {
		t.Fatalf("64 lines per row rejected: %v", err)
	}
}

// Regression: cache levels rank LRU order with one-byte recency stamps,
// so more than 256 ways would pick wrong victims silently. Validate must
// reject such a level with a typed error and accept exactly 256.
func TestValidateRejectsTooManyCacheWays(t *testing.T) {
	c := Default()
	c.L3.Ways = 2 * MaxCacheWays
	err := c.Validate()
	if !errors.Is(err, ErrCacheWays) {
		t.Fatalf("Validate(%d-way L3) = %v, want ErrCacheWays", c.L3.Ways, err)
	}
	c.L3.Ways = MaxCacheWays
	if err := c.Validate(); err != nil {
		t.Fatalf("%d-way L3 rejected: %v", c.L3.Ways, err)
	}
}

// Regression: the vault scheduler tracks banks with queued work in a
// 64-bit mask. Validate must reject more banks per vault with a typed
// error and accept exactly 64.
func TestValidateRejectsTooManyVaultBanks(t *testing.T) {
	c := Default()
	c.HMC.BanksPerLayer = 2 * MaxVaultBanks / c.HMC.Layers
	err := c.Validate()
	if !errors.Is(err, ErrVaultBanks) {
		t.Fatalf("Validate(%d banks) = %v, want ErrVaultBanks", c.HMC.Banks(), err)
	}
	c.HMC.BanksPerLayer = MaxVaultBanks / c.HMC.Layers
	if err := c.Validate(); err != nil {
		t.Fatalf("%d banks per vault rejected: %v", c.HMC.Banks(), err)
	}
}

func TestValidateJoinsMultipleErrors(t *testing.T) {
	c := Default()
	c.Processor.Cores = 0
	c.HMC.Vaults = 3
	err := c.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "cores") || !strings.Contains(msg, "vault") {
		t.Fatalf("joined error missing parts: %q", msg)
	}
}

// Property: Validate never panics and always returns a verdict, for any
// perturbation of the numeric fields.
func TestValidateNeverPanics(t *testing.T) {
	prop := func(cores, ways, line, vaults, rows, entries int16, thr int8) bool {
		c := Default()
		c.Processor.Cores = int(cores)
		c.L1.Ways = int(ways)
		c.L2.LineBytes = int(line)
		c.HMC.Vaults = int(vaults)
		c.HMC.RowsPerBank = int(rows)
		c.PFBuffer.SizeBytes = int64(entries)
		c.CAMPS.UtilThreshold = int(thr)
		_ = c.Validate() // must not panic
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if OpenPage.String() != "open" || ClosedPage.String() != "closed" {
		t.Fatal("page policy strings")
	}
	if FRFCFS.String() != "FR-FCFS" || FCFS.String() != "FCFS" {
		t.Fatal("scheduler strings")
	}
	if RoRaBaVaCo.String() != "RoRaBaVaCo" || RoRaVaBaCo.String() != "RoRaVaBaCo" ||
		VaultXOR.String() != "VaultXOR" {
		t.Fatal("interleave strings")
	}
}

func TestDefaultKnobsAreThePapers(t *testing.T) {
	c := Default()
	if c.HMC.PagePolicy != OpenPage {
		t.Error("default page policy must be open (Table I)")
	}
	if c.HMC.Scheduler != FRFCFS {
		t.Error("default scheduler must be FR-FCFS (Table I)")
	}
	if c.HMC.Interleave != RoRaBaVaCo {
		t.Error("default interleave must be RoRaBaVaCo (Table I)")
	}
	if c.HMC.TSVGBps != 0 {
		t.Error("TSV path must be unmodeled by default (paper premise)")
	}
	if c.Links.SleepAfter != 0 {
		t.Error("link power management must be off by default")
	}
	if c.Links.VaultPortGBps != 0 {
		t.Error("vault ingress bound must be off by default")
	}
	if c.Processor.L2PrefetchDegree != 0 {
		t.Error("core-side prefetcher must be off by default")
	}
	if c.PFBuffer.WritebackDirtyOnly {
		t.Error("eviction writeback must follow the paper (write all) by default")
	}
}
