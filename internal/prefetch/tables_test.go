package prefetch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"camps/internal/config"
)

// contains reports residency without changing recency.
func (c *CT) contains(bank int, row int64) bool {
	_, ok := c.index.get(rowKey(bank, row))
	return ok
}

func TestRUTTrackDistinctLines(t *testing.T) {
	r := newRUT(4)
	if u := r.track(0, 9, 3); u != 1 {
		t.Fatalf("first track util = %d, want 1", u)
	}
	if u := r.track(0, 9, 3); u != 1 {
		t.Fatalf("repeat line util = %d, want 1 (distinct lines)", u)
	}
	if u := r.track(0, 9, 5); u != 2 {
		t.Fatalf("second line util = %d, want 2", u)
	}
	if e := r.entries[0]; !e.valid || e.row != 9 {
		t.Fatalf("entry 0 = %+v, want row 9", e)
	}
	if u := r.entries[0].util(); u != 2 {
		t.Fatalf("util(0) = %d", u)
	}
}

func TestRUTReplaceOnDifferentRow(t *testing.T) {
	r := newRUT(2)
	r.track(1, 5, 0)
	r.track(1, 5, 1)
	if u := r.track(1, 6, 0); u != 1 {
		t.Fatalf("util after row change = %d, want 1", u)
	}
	if row := r.entries[1].row; row != 6 {
		t.Fatalf("tracked row = %d, want 6", row)
	}
}

func TestRUTClearAndDisplace(t *testing.T) {
	r := newRUT(2)
	r.track(0, 3, 0)
	r.clear(0)
	if r.entries[0].valid {
		t.Fatal("entry survived Clear")
	}
	if _, _, ok := r.displace(0); ok {
		t.Fatal("Displace on empty entry returned ok")
	}
	r.track(0, 4, 1)
	r.track(0, 4, 3)
	row, touched, ok := r.displace(0)
	if !ok || row != 4 {
		t.Fatalf("Displace = %d,%v", row, ok)
	}
	if touched != (1<<1 | 1<<3) {
		t.Fatalf("displaced bitmap = %#x, want lines 1 and 3", touched)
	}
	if r.entries[0].valid {
		t.Fatal("entry survived Displace")
	}
}

func TestRUTBanksIndependent(t *testing.T) {
	r := newRUT(3)
	r.track(0, 1, 0)
	r.track(1, 2, 0)
	r.track(2, 3, 0)
	for bank, want := range []int64{1, 2, 3} {
		if e := r.entries[bank]; !e.valid || e.row != want {
			t.Fatalf("bank %d tracks %d, want %d", bank, e.row, want)
		}
	}
}

func TestNewRUTValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newRUT(0) did not panic")
		}
	}()
	newRUT(0)
}

func TestCTInsertContainsRemove(t *testing.T) {
	ct := newCT(4)
	if ct.capacity() != 4 {
		t.Fatalf("capacity = %d", ct.capacity())
	}
	ct.insert(0, 10, 0)
	ct.insert(1, 20, 0)
	if !ct.contains(0, 10) || !ct.contains(1, 20) || ct.contains(0, 20) {
		t.Fatal("containment wrong")
	}
	if _, ok := ct.remove(0, 10); !ok {
		t.Fatal("remove of resident entry failed")
	}
	if _, ok := ct.remove(0, 10); ok {
		t.Fatal("double remove succeeded")
	}
	if ct.size() != 1 {
		t.Fatalf("len = %d, want 1", ct.size())
	}
}

func TestCTLRUEviction(t *testing.T) {
	ct := newCT(2)
	ct.insert(0, 1, 0)
	ct.insert(0, 2, 0)
	ct.insert(0, 1, 0) // refresh 1 -> LRU is now 2
	ct.insert(0, 3, 0) // evicts 2
	if ct.contains(0, 2) {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if !ct.contains(0, 1) || !ct.contains(0, 3) {
		t.Fatal("resident set wrong after LRU eviction")
	}
	if ct.size() != 2 {
		t.Fatalf("len = %d, want 2", ct.size())
	}
}

func TestCTDuplicateInsertDoesNotGrow(t *testing.T) {
	ct := newCT(4)
	for i := 0; i < 10; i++ {
		ct.insert(2, 7, 0)
	}
	if ct.size() != 1 {
		t.Fatalf("duplicate inserts grew table to %d", ct.size())
	}
}

func TestCTNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ct := newCT(8)
	for i := 0; i < 10000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			ct.insert(rng.Intn(16), int64(rng.Intn(100)), 0)
		case 2:
			ct.remove(rng.Intn(16), int64(rng.Intn(100)))
		}
		if ct.size() > ct.capacity() {
			t.Fatalf("CT overflowed: %d > %d", ct.size(), ct.capacity())
		}
	}
}

func TestNewCTValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newCT(0) did not panic")
		}
	}()
	newCT(0)
}

func TestCTStoresAndMergesBitmaps(t *testing.T) {
	ct := newCT(4)
	ct.insert(0, 9, 0b0011)
	ct.insert(0, 9, 0b1100) // refresh merges utilization info
	touched, ok := ct.remove(0, 9)
	if !ok || touched != 0b1111 {
		t.Fatalf("CT bitmap = %#b,%v; want merged 0b1111", touched, ok)
	}
}

// ctEntry is one resident CT entry as the tests see it.
type ctEntry struct {
	bank    int
	row     int64
	touched uint64
}

// lruOrder walks ct's LRU list, least recently used first.
func lruOrder(ct *CT) []ctEntry {
	out := make([]ctEntry, 0, ct.size())
	for s := ct.head; s >= 0; s = ct.slots[s].next {
		e := &ct.slots[s]
		out = append(out, ctEntry{rowKeyBank(e.key), rowKeyRow(e.key), e.touched})
	}
	return out
}

// TestCTInsertKeepsCapacity pins the full-table eviction path: after many
// more inserts than the capacity, exactly the most recent capacity rows
// stay resident in LRU order, and inserting allocates nothing.
func TestCTInsertKeepsCapacity(t *testing.T) {
	const capacity = 10
	ct := newCT(capacity)
	for i := 0; i < 10*capacity; i++ {
		ct.insert(i%16, int64(i), 0)
	}
	if ct.size() != capacity {
		t.Fatalf("size = %d after %d inserts, want %d", ct.size(), 10*capacity, capacity)
	}
	// The most recent capacity rows stay resident, oldest first.
	order := lruOrder(ct)
	if len(order) != capacity {
		t.Fatalf("LRU list holds %d entries, want %d", len(order), capacity)
	}
	for i, en := range order {
		if want := int64(9*capacity + i); en.row != want || en.bank != int(want%16) {
			t.Fatalf("LRU position %d holds bank %d row %d, want bank %d row %d",
				i, en.bank, en.row, want%16, want)
		}
	}
	row := int64(10 * capacity)
	if allocs := testing.AllocsPerRun(1000, func() {
		ct.insert(int(row%16), row, 0)
		row++
	}); allocs != 0 {
		t.Fatalf("CT.insert allocates %.1f times per call, want 0", allocs)
	}
}

// refCT is the reference conflict table: a plain slice in LRU order (index
// 0 = LRU), searched linearly, as the table was first written.
type refCT struct {
	cap     int
	entries []ctEntry
}

func (r *refCT) find(bank int, row int64) int {
	for i, e := range r.entries {
		if e.bank == bank && e.row == row {
			return i
		}
	}
	return -1
}

func (r *refCT) insert(bank int, row int64, touched uint64) {
	if i := r.find(bank, row); i >= 0 {
		touched |= r.entries[i].touched
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
	} else if len(r.entries) == r.cap {
		r.entries = r.entries[1:]
	}
	r.entries = append(r.entries, ctEntry{bank, row, touched})
}

func (r *refCT) remove(bank int, row int64) (uint64, bool) {
	i := r.find(bank, row)
	if i < 0 {
		return 0, false
	}
	touched := r.entries[i].touched
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return touched, true
}

// collidingCTKeys returns n (bank, row) keys whose index homes in ct are
// the first and last index positions, so probe runs collide and wrap.
func collidingCTKeys(ct *CT, n int) []ctEntry {
	var keys []ctEntry
	for row := int64(0); len(keys) < n; row++ {
		for bank := 0; bank < 4 && len(keys) < n; bank++ {
			if h := ct.index.home(rowKey(bank, row)); h == 0 || h == ct.index.mask {
				keys = append(keys, ctEntry{bank: bank, row: row})
			}
		}
	}
	return keys
}

// TestCTMatchesReferenceLRU drives the indexed CT and the reference slice
// with the same seeded insert/remove/contains stream over a key space a
// little larger than the table, and compares residency, merged bitmaps
// and LRU order after every operation. One key pool is tiny and random;
// the other piles every key onto two index homes at opposite ends of the
// index, so eviction and remove exercise backward-shift delete across the
// wrap.
func TestCTMatchesReferenceLRU(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		for _, pool := range []string{"random", "colliding"} {
			t.Run(fmt.Sprintf("cap%d-%s", capacity, pool), func(t *testing.T) {
				ct := newCT(capacity)
				ref := &refCT{cap: capacity, entries: []ctEntry{}}
				keys := collidingCTKeys(ct, 2*capacity+2)
				rng := rand.New(rand.NewSource(int64(capacity)))
				pick := func() (int, int64) {
					if pool == "colliding" {
						k := keys[rng.Intn(len(keys))]
						return k.bank, k.row
					}
					return rng.Intn(2), int64(rng.Intn(capacity + 2))
				}
				for op := 0; op < 3000; op++ {
					bank, row := pick()
					switch rng.Intn(4) {
					case 0, 1:
						touched := uint64(1) << uint(rng.Intn(16))
						ct.insert(bank, row, touched)
						ref.insert(bank, row, touched)
					case 2:
						got, gotOK := ct.remove(bank, row)
						want, wantOK := ref.remove(bank, row)
						if got != want || gotOK != wantOK {
							t.Fatalf("op %d: remove(%d,%d) = %#x,%v, reference %#x,%v",
								op, bank, row, got, gotOK, want, wantOK)
						}
					default:
						if got, want := ct.contains(bank, row), ref.find(bank, row) >= 0; got != want {
							t.Fatalf("op %d: contains(%d,%d) = %v, reference %v", op, bank, row, got, want)
						}
					}
					if ct.size() != len(ref.entries) {
						t.Fatalf("op %d: size = %d, reference %d", op, ct.size(), len(ref.entries))
					}
					if got := lruOrder(ct); !reflect.DeepEqual(got, ref.entries) {
						t.Fatalf("op %d: LRU order %v, reference %v", op, got, ref.entries)
					}
					if err := ct.check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			})
		}
	}
}

// TestCTCheckCatchesCorruption breaks the CT's index and LRU list one way
// at a time; each must fail the CAMPS engine's invariant check.
func TestCTCheckCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(ct *CT)
	}{
		{"stale index entry", func(ct *CT) {
			// An evicted row left in the index: an extra, unlisted key.
			ct.index.put(rowKey(0, 1000), int64(ct.head))
		}},
		{"unindexed entry", func(ct *CT) { ct.index.delete(ct.slots[ct.tail].key) }},
		{"duplicate key", func(ct *CT) { ct.slots[ct.head].key = ct.slots[ct.tail].key }},
		{"broken back link", func(ct *CT) { ct.slots[ct.tail].prev = -1 }},
		{"short list", func(ct *CT) { ct.n++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newCAMPS(config.Default().CAMPS, testCtx(nil))
			for row := int64(0); row < 40; row++ {
				e.ct.insert(int(row%4), row, 1)
			}
			if err := e.CheckInvariant(); err != nil {
				t.Fatalf("intact table: %v", err)
			}
			tc.corrupt(e.ct)
			if err := e.CheckInvariant(); err == nil {
				t.Fatal("CheckInvariant accepted a corrupted CT")
			}
		})
	}
}

// TestHybridChecksCandidateTables corrupts the CT of a CAMPS candidate
// inside the hybrid engine; the hybrid's own invariant check must report
// it, naming the candidate.
func TestHybridChecksCandidateTables(t *testing.T) {
	ctx := testCtx(busyQueue{})
	h := New(Hybrid, config.Default(), ctx).(*hybridEngine)
	demands := newRowStream(0x9e3779b97f4a7c15, ctx)
	for i := 0; i < 4000; i++ {
		h.OnDemandServed(demands.demand())
	}
	if err := h.CheckInvariant(); err != nil {
		t.Fatalf("intact tables: %v", err)
	}
	for _, c := range h.cands {
		if ce, ok := c.eng.(*campsEngine); ok && ce.ct.size() > 0 {
			ce.ct.n++
			err := h.CheckInvariant()
			if err == nil || !strings.Contains(err.Error(), c.name) {
				t.Fatalf("corrupted %s CT: CheckInvariant = %v", c.name, err)
			}
			return
		}
	}
	t.Fatal("no CAMPS candidate with a populated CT")
}

// ctOp is one conflict-table call as campsEngine issues it: an insert of
// the row a conflict displaced, or the remove every activation makes.
type ctOp struct {
	bank   int
	row    int64
	insert bool
}

// The CT traffic of HM1 under CAMPS-MOD (the default system, 20k warmup
// references, 200k measured instructions per core), counted over all 32
// vaults' tables: 0.77 inserts per remove, since 77% of activations
// displace an open row; 7.4% of removes find their row; and no insert
// finds its row resident, because every activation removed it first.
// MX1 measured the same to within 0.02. In vault 0's table, 34% of
// removes name a row that some earlier insert displaced, most of them
// long since evicted, and the hits are rows reached again soon after
// displacement: half within two activations of their bank.
const (
	ctTrafficBanks     = 16 // banks per vault, evenly loaded
	ctTrafficNearShare = 0.12
	ctTrafficFarShare  = 0.25
	ctTrafficStayOpen  = 0.83
)

// ctTraffic returns n CT calls in campsEngine's pattern over a synthetic
// activation stream shaped like the measured one. Each activation picks a
// bank, inserts the bank's open row if one is open, then removes the row
// it activates: one of the bank's last few rows (ctTrafficNearShare), an
// older one of its last 64 (ctTrafficFarShare) or a fresh row. A remove
// that hits leaves the bank precharged, as the engine's whole-row fetch
// does; otherwise the row stays open with probability ctTrafficStayOpen,
// standing in for the utilization-threshold fetches that close it.
func ctTraffic(n int, seed int64) []ctOp {
	const history = 64
	rng := rand.New(rand.NewSource(seed))
	ct := newCT(32)
	open := make([]int64, ctTrafficBanks)
	hist := make([][history]int64, ctTrafficBanks)
	acts := make([]int, ctTrafficBanks)
	next := int64(0)
	for b := range open {
		open[b] = -1
	}
	ops := make([]ctOp, 0, n+1)
	for len(ops) < n {
		b := rng.Intn(ctTrafficBanks)
		if open[b] >= 0 {
			ops = append(ops, ctOp{bank: b, row: open[b], insert: true})
			ct.insert(b, open[b], 0)
		}
		var row int64
		switch u := rng.Float64(); {
		case u < ctTrafficNearShare && acts[b] > 1:
			row = hist[b][(acts[b]-2-rng.Intn(min(acts[b]-1, 3)))%history]
		case u < ctTrafficNearShare+ctTrafficFarShare && acts[b] > 4:
			row = hist[b][(acts[b]-5-rng.Intn(min(acts[b]-4, history-4)))%history]
		default:
			row = next
			next++
		}
		ops = append(ops, ctOp{bank: b, row: row})
		_, hit := ct.remove(b, row)
		if !hit && rng.Float64() < ctTrafficStayOpen {
			open[b] = row
		} else {
			open[b] = -1
		}
		hist[b][acts[b]%history] = row
		acts[b]++
	}
	return ops[:n]
}

// The benchmark's traffic keeps the shape it claims: replayed on the
// paper's 32-entry table, its insert/remove mix, remove hit rate and row
// reuse match the HM1 measurement above, and no insert finds its row.
func TestConflictTableTrafficShape(t *testing.T) {
	ct := newCT(32)
	inserted := map[int64]bool{}
	var inserts, removes, hits, reused int
	for _, o := range ctTraffic(200_000, 1) {
		key := rowKey(o.bank, o.row)
		if o.insert {
			if ct.contains(o.bank, o.row) {
				t.Fatalf("insert of resident bank %d row %d; the engine removes a row on activation", o.bank, o.row)
			}
			ct.insert(o.bank, o.row, 0)
			inserted[key] = true
			inserts++
			continue
		}
		removes++
		if inserted[key] {
			reused++
		}
		if _, ok := ct.remove(o.bank, o.row); ok {
			hits++
		}
	}
	for _, c := range []struct {
		name     string
		got      float64
		lo, want float64
		hi       float64
	}{
		{"inserts per remove", float64(inserts) / float64(removes), 0.72, 0.77, 0.82},
		{"remove hit rate", float64(hits) / float64(removes), 0.06, 0.074, 0.09},
		{"removes of a displaced row", float64(reused) / float64(removes), 0.28, 0.34, 0.40},
	} {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s = %.3f, measured %.3f on HM1", c.name, c.got, c.want)
		}
	}
}

// BenchmarkConflictTable measures one CT call at the paper's 32-entry
// capacity on ctTraffic, campsEngine's call pattern: most calls are
// removes that miss, and the inserts evict from a full table.
func BenchmarkConflictTable(b *testing.B) {
	ops := ctTraffic(1<<12, 7)
	ct := newCT(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &ops[i&(len(ops)-1)]
		if o.insert {
			ct.insert(o.bank, o.row, 1<<uint(i&15))
		} else {
			ct.remove(o.bank, o.row)
		}
	}
}
