package hmc

import (
	"fmt"
	"testing"
	"testing/quick"

	"camps/internal/config"
	"camps/internal/obs"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.HMC.Timing.TREFI = 1 << 20 // keep refresh out of latency tests
	return cfg
}

func TestMappingDecodeKnownAddresses(t *testing.T) {
	m := NewMapping(config.Default())
	// Address 0: everything zero.
	loc := m.Decode(0)
	if loc != (Location{}) {
		t.Fatalf("Decode(0) = %+v", loc)
	}
	// One cache line up: line 1, same vault/bank/row.
	loc = m.Decode(64)
	if loc != (Location{Line: 1}) {
		t.Fatalf("Decode(64) = %+v", loc)
	}
	// One full row up (1KB): next vault (Co bits exhausted -> Va).
	loc = m.Decode(1024)
	if loc != (Location{Vault: 1}) {
		t.Fatalf("Decode(1024) = %+v", loc)
	}
	// 32 rows up (32KB): vault wraps, bank 1.
	loc = m.Decode(32 * 1024)
	if loc != (Location{Bank: 1}) {
		t.Fatalf("Decode(32KB) = %+v", loc)
	}
	// 16 banks * 32 vaults * 1KB = 512KB: row 1.
	loc = m.Decode(512 * 1024)
	if loc != (Location{Row: 1}) {
		t.Fatalf("Decode(512KB) = %+v", loc)
	}
}

// capacity returns the cube's size in bytes.
func capacity(h config.HMC) uint64 {
	return uint64(h.Vaults) * uint64(h.Banks()) * uint64(h.RowsPerBank) * uint64(h.RowBytes)
}

func TestMappingRoundTrip(t *testing.T) {
	cfg := config.Default()
	m := NewMapping(cfg)
	prop := func(raw uint64) bool {
		addr := Address(raw % capacity(cfg.HMC))
		loc := m.Decode(addr)
		return m.encode(loc) == addr&^Address(cfg.L3.LineBytes-1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingEncodeValidation(t *testing.T) {
	m := NewMapping(config.Default())
	for _, loc := range []Location{
		{Vault: 32}, {Vault: -1}, {Bank: 16}, {Row: 8192}, {Line: 16}, {Line: -1},
	} {
		loc := loc
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("encode(%+v) did not panic", loc)
				}
			}()
			m.encode(loc)
		}()
	}
}

func TestMappingDistributesAcrossVaults(t *testing.T) {
	m := NewMapping(config.Default())
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[m.Decode(Address(i*1024)).Vault] = true
	}
	if len(seen) != 32 {
		t.Fatalf("32 consecutive rows hit %d vaults, want 32", len(seen))
	}
}

func TestPipeSerializationAndBackpressure(t *testing.T) {
	cfg := config.Default()
	l := newLink(cfg.Links)
	// 24 GB/s -> 80 bytes take 80/24e9 s = 3333 ps.
	first, _ := l.sendRequest(0, 80)
	wantSer := sim.Time(80 * 1_000_000_000_000 / cfg.Links.BytesPerSecond())
	if first != wantSer+cfg.Links.PropDelay {
		t.Fatalf("first packet arrives at %v, want %v", first, wantSer+cfg.Links.PropDelay)
	}
	// Second packet sent at the same instant queues behind the first.
	second, _ := l.sendRequest(0, 80)
	if second != first+wantSer {
		t.Fatalf("second packet arrives at %v, want %v", second, first+wantSer)
	}
	// Response direction is independent.
	resp, _ := l.sendResponse(0, 80)
	if resp != first {
		t.Fatalf("response direction shares request bandwidth: %v vs %v", resp, first)
	}
	s := l.stats()
	if s.ReqBytes != 160 || s.RespBytes != 80 {
		t.Fatalf("link stats = %+v", s)
	}
	// The two packets held the request lanes for two serializations and
	// no longer: a packet sent as they free goes out at once.
	third, _ := l.sendRequest(2*wantSer, 80)
	if third != second+wantSer {
		t.Fatalf("packet sent as the lanes free arrives at %v, want %v", third, second+wantSer)
	}
}

func TestCubeReadCompletes(t *testing.T) {
	cfg := testCfg()
	eng := sim.NewEngine()
	cube := NewCube(eng, cfg, prefetch.CAMPS)
	var done sim.Time = -1
	read(cube, 0x1234<<6, func(at sim.Time) { done = at })
	eng.Run()
	if done < 0 {
		t.Fatal("read never completed")
	}
	// Sanity: latency covers link + bank access, i.e. tens of ns.
	if done < 30*sim.Nanosecond || done > 500*sim.Nanosecond {
		t.Fatalf("read latency %v outside plausible range", done)
	}
	if cube.reads.Value() != 1 || cube.writes.Value() != 0 {
		t.Fatalf("counters: reads %d writes %d", cube.reads.Value(), cube.writes.Value())
	}
	if cube.ReadAMAT().Count() != 1 {
		t.Fatal("AMAT sample missing")
	}
}

func TestCubeWritePostedCompletion(t *testing.T) {
	cfg := testCfg()
	eng := sim.NewEngine()
	cube := NewCube(eng, cfg, prefetch.CAMPS)
	var rdone sim.Time = -1
	cube.WriteLine(0)
	read(cube, 0, func(at sim.Time) { rdone = at })
	eng.Run()
	if rdone < 0 {
		t.Fatal("read did not complete")
	}
	if cube.writes.Value() != 1 || cube.Vault(0).Stats().DemandWrites.Value() != 1 {
		t.Fatalf("write not delivered: cube writes %d, vault 0 demand writes %d",
			cube.writes.Value(), cube.Vault(0).Stats().DemandWrites.Value())
	}
	if cube.ReadAMAT().Count() != 1 {
		t.Fatal("writes must not contribute AMAT samples")
	}
}

func TestCubeRoutesToCorrectVault(t *testing.T) {
	cfg := testCfg()
	eng := sim.NewEngine()
	cube := NewCube(eng, cfg, prefetch.CAMPS)
	m := cube.mapping
	addr := m.encode(Location{Vault: 7, Bank: 3, Row: 99, Line: 5})
	read(cube, addr, nil)
	eng.Run()
	if got := cube.Vault(7).Stats().DemandReads.Value(); got != 1 {
		t.Fatalf("vault 7 saw %d reads, want 1", got)
	}
	for i := 0; i < cube.Vaults(); i++ {
		if i == 7 {
			continue
		}
		if cube.Vault(i).Stats().DemandReads.Value() != 0 {
			t.Fatalf("vault %d saw traffic meant for vault 7", i)
		}
	}
}

func TestCubeParallelVaultsFasterThanSingleVault(t *testing.T) {
	cfg := testCfg()
	m := NewMapping(cfg)

	run := func(sameVault bool) sim.Time {
		eng := sim.NewEngine()
		cube := NewCube(eng, cfg, prefetch.CAMPS)
		var last sim.Time
		for i := 0; i < 16; i++ {
			var loc Location
			if sameVault {
				loc = Location{Vault: 0, Bank: 0, Row: int64(i * 2)} // conflicts
			} else {
				loc = Location{Vault: i % 32, Bank: i % 16, Row: int64(i)}
			}
			read(cube, m.encode(loc), func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		eng.Run()
		return last
	}
	spread := run(false)
	serial := run(true)
	if spread >= serial {
		t.Fatalf("vault-parallel accesses (%v) not faster than single-bank conflicts (%v)", spread, serial)
	}
}

func TestCubeFlushAndAggregates(t *testing.T) {
	cfg := testCfg()
	eng := sim.NewEngine()
	cube := NewCube(eng, cfg, prefetch.Base)
	for i := 0; i < 64; i++ {
		if i%8 == 7 {
			cube.WriteLine(uint64(i * 64))
		} else {
			read(cube, Address(i*64), nil)
		}
	}
	eng.Run()
	cube.Flush()
	vs := cube.VaultStats()
	if vs.DemandReads.Value()+vs.DemandWrites.Value() != 64 {
		t.Fatalf("aggregate demand = %d, want 64",
			vs.DemandReads.Value()+vs.DemandWrites.Value())
	}
	if vs.BankOps.Activates == 0 {
		t.Fatal("no activations collected")
	}
	bs := cube.BufferStats()
	if bs.Inserts == 0 {
		t.Fatal("BASE inserted nothing into prefetch buffers")
	}
	// 56 header-only read requests and 8 writes carrying a line.
	ls := cube.LinkStats()
	total := uint64(0)
	for _, s := range ls {
		total += s.ReqBytes
	}
	if want := uint64(64*cfg.Links.HeaderBytes + 8*cfg.L3.LineBytes); total != want {
		t.Fatalf("links carried %d request bytes, want %d", total, want)
	}
}

func TestCubeDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := testCfg()
		eng := sim.NewEngine()
		cube := NewCube(eng, cfg, prefetch.CAMPSMOD)
		for i := 0; i < 300; i++ {
			addr := Address((i * 7919) % (1 << 22))
			if i%5 == 0 {
				cube.WriteLine(uint64(m64(addr)))
			} else {
				read(cube, m64(addr), nil)
			}
			eng.RunUntil(eng.Now() + sim.Time(i%4)*500)
		}
		eng.Run()
		cube.Flush()
		vs := cube.VaultStats()
		return vs.RowConflicts.Value(), cube.ReadAMAT().Mean()
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("nondeterministic cube: (%d,%g) vs (%d,%g)", a1, a2, b1, b2)
	}
}

func m64(a Address) Address { return a &^ 63 }

// read issues one cube read that carries no attribution span.
func read(c *Cube, addr Address, done func(at sim.Time)) {
	c.ReadLine(uint64(addr), obs.SpanRef{}, done)
}

func TestMappingVariantsRoundTrip(t *testing.T) {
	for _, scheme := range []config.AddressInterleave{
		config.RoRaBaVaCo, config.RoRaVaBaCo, config.VaultXOR,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.HMC.Interleave = scheme
			m := NewMapping(cfg)
			if m.scheme != scheme {
				t.Fatalf("scheme = %v", m.scheme)
			}
			prop := func(raw uint64) bool {
				addr := Address(raw % capacity(cfg.HMC))
				loc := m.Decode(addr)
				return m.encode(loc) == addr&^Address(cfg.L3.LineBytes-1)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
				t.Fatal(err)
			}
			// Inverse direction: every location encodes/decodes to itself.
			rng := uint64(12345)
			next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1; return rng % n }
			for i := 0; i < 500; i++ {
				loc := Location{
					Vault: int(next(32)), Bank: int(next(16)),
					Row: int64(next(8192)), Line: int(next(16)),
				}
				if got := m.Decode(m.encode(loc)); got != loc {
					t.Fatalf("%v: %+v -> %+v", scheme, loc, got)
				}
			}
		})
	}
}

func TestMappingVariantsInterleaveDifferently(t *testing.T) {
	cfg := config.Default()
	m0 := NewMapping(cfg)
	cfg.HMC.Interleave = config.RoRaVaBaCo
	m1 := NewMapping(cfg)
	// Under RoRaBaVaCo, +1KB moves to the next vault; under RoRaVaBaCo it
	// moves to the next bank of the same vault.
	a, b := m0.Decode(1024), m1.Decode(1024)
	if a.Vault != 1 || a.Bank != 0 {
		t.Fatalf("RoRaBaVaCo Decode(1KB) = %+v", a)
	}
	if b.Vault != 0 || b.Bank != 1 {
		t.Fatalf("RoRaVaBaCo Decode(1KB) = %+v", b)
	}
}

func TestVaultXORSpreadsBankStride(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.Interleave = config.VaultXOR
	m := NewMapping(cfg)
	// Under the paper's mapping, +512KB keeps the same vault (next row of
	// the same bank); under VaultXOR it lands in a different vault.
	base := m.Decode(0)
	next := m.Decode(512 << 10)
	if next.Vault == base.Vault {
		t.Fatal("VaultXOR did not spread the bank stride across vaults")
	}
}

func TestLinkPowerManagement(t *testing.T) {
	cfg := config.Default()
	cfg.Links.SleepAfter = 100 * sim.Nanosecond
	cfg.Links.WakeLatency = 20 * sim.Nanosecond
	l := newLink(cfg.Links)
	// First packet: pipe starts awake at time 0... after an initial idle
	// gap longer than SleepAfter it is asleep and pays the wake latency.
	first, _ := l.sendRequest(500*sim.Nanosecond, 80)
	ser := sim.Time(80 * 1_000_000_000_000 / cfg.Links.BytesPerSecond())
	want := 500*sim.Nanosecond + cfg.Links.WakeLatency + ser + cfg.Links.PropDelay
	if first != want {
		t.Fatalf("woken packet arrives at %v, want %v", first, want)
	}
	slept := 500*sim.Nanosecond - 100*sim.Nanosecond
	if s := l.stats(); s.ReqSlept != slept {
		t.Fatalf("slept = %v, want 400ns", s.ReqSlept)
	}
	// A back-to-back packet pays no wake latency and adds no sleep.
	second, _ := l.sendRequest(first-cfg.Links.PropDelay, 80)
	if second != first+ser {
		t.Fatalf("warm packet arrives at %v, want %v", second, first+ser)
	}
	if s := l.stats(); s.ReqSlept != slept {
		t.Fatalf("warm packet slept: %v, want %v", s.ReqSlept, slept)
	}
}

func TestLinkPowerDisabledByDefault(t *testing.T) {
	lc := config.Default().Links
	l := newLink(lc)
	at, _ := l.sendRequest(10*sim.Microsecond, 80)
	if s := l.stats(); s.ReqSlept != 0 {
		t.Fatalf("default links slept: %+v", s)
	}
	if want := 10*sim.Microsecond + l.req.serTime(80) + lc.PropDelay; at != want {
		t.Fatalf("packet after a long idle gap arrives at %v, want %v (no wake latency)", at, want)
	}
}

func TestVaultIngressPortSerializes(t *testing.T) {
	run := func(gbps int64) sim.Time {
		cfg := testCfg()
		cfg.Links.VaultPortGBps = gbps
		eng := sim.NewEngine()
		cube := NewCube(eng, cfg, prefetch.None)
		m := cube.mapping
		// Eight writes (80-byte packets) into ONE vault, different banks:
		// with an ingress bound they serialize at the port.
		var last sim.Time
		for i := 0; i < 8; i++ {
			addr := m.encode(Location{Vault: 3, Bank: i, Row: 1})
			read(cube, addr, func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		eng.Run()
		return last
	}
	free := run(0)
	bound := run(1) // 1 GB/s: one 16B header packet takes 16ns
	if bound <= free {
		t.Fatalf("ingress port had no effect: %v vs %v", bound, free)
	}
}

// encode reassembles a location into the lowest byte address of its line,
// the inverse of Decode the tests build their addresses with.
func (m Mapping) encode(loc Location) Address {
	if loc.Vault < 0 || uint64(loc.Vault) > m.vaultMask {
		panic(fmt.Sprintf("hmc: vault %d out of range", loc.Vault))
	}
	if loc.Bank < 0 || uint64(loc.Bank) > m.bankMask {
		panic(fmt.Sprintf("hmc: bank %d out of range", loc.Bank))
	}
	if loc.Row < 0 || uint64(loc.Row) > m.rowMask {
		panic(fmt.Sprintf("hmc: row %d out of range", loc.Row))
	}
	if loc.Line < 0 || uint64(loc.Line) > m.linesMask {
		panic(fmt.Sprintf("hmc: line %d out of range", loc.Line))
	}
	row := uint64(loc.Row)
	vlt := uint64(loc.Vault)
	bank := uint64(loc.Bank)
	var a uint64
	switch m.scheme {
	case config.RoRaVaBaCo:
		a = row
		a = a<<m.vaultBits | vlt
		a = a<<m.bankBits | bank
	case config.VaultXOR:
		a = row
		a = a<<m.bankBits | bank
		a = a<<m.vaultBits | (vlt ^ (row & m.vaultMask))
	default:
		a = row
		a = a<<m.bankBits | bank
		a = a<<m.vaultBits | vlt
	}
	a = a<<m.lineBits | uint64(loc.Line)
	return Address(a << m.lineShift)
}
