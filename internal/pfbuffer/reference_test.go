package pfbuffer

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"camps/internal/sim"
)

// refBuffer is the buffer kept as one array of whole entries, each with
// its own valid bit, row id and recency counter: every search and
// renumbering walks the entries. Buffer must behave exactly like it.
type refBuffer struct {
	entries     []refEntry
	linesPerRow int
	policy      Policy
	nValid      int
	stats       Stats
}

type refEntry struct {
	id           RowID
	valid, dirty bool
	used, late   bool
	touched      uint64
	recency      int
	insertAt     sim.Time
}

func (e *refEntry) util() int { return bits.OnesCount64(e.touched) }

func newRefBuffer(entries, linesPerRow int, policy Policy) *refBuffer {
	return &refBuffer{entries: make([]refEntry, entries), linesPerRow: linesPerRow, policy: policy}
}

func (b *refBuffer) find(id RowID) int {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].id == id {
			return i
		}
	}
	return -1
}

func (b *refBuffer) lookup(id RowID, line int, write bool, now sim.Time) bool {
	i := b.find(id)
	if i < 0 {
		b.stats.Misses++
		return false
	}
	e := &b.entries[i]
	if bit := uint64(1) << uint(line); e.touched&bit == 0 {
		e.touched |= bit
		b.stats.LinesUseful++
	}
	if !e.used {
		e.used = true
		b.stats.UsedRows++
		b.stats.FirstUseDelay.Observe(float64(now - e.insertAt))
	}
	e.dirty = e.dirty || write
	old := e.recency
	for j := range b.entries {
		if b.entries[j].valid && b.entries[j].recency > old {
			b.entries[j].recency--
		}
	}
	e.recency = b.nValid - 1
	b.stats.Hits++
	return true
}

func (b *refBuffer) insert(id RowID, touched uint64, now sim.Time) (Eviction, bool) {
	if b.find(id) >= 0 {
		return Eviction{}, false
	}
	if b.linesPerRow < 64 {
		touched &= 1<<uint(b.linesPerRow) - 1
	}
	var ev Eviction
	evicted := false
	slot := -1
	for i := range b.entries {
		if !b.entries[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = b.victim()
		ev, evicted = b.evict(slot), true
	}
	b.entries[slot] = refEntry{id: id, valid: true, recency: b.nValid, touched: touched, insertAt: now}
	b.nValid++
	b.stats.Inserts++
	return ev, evicted
}

func (b *refBuffer) victim() int {
	if b.policy == UtilRecency {
		best := -1
		for i := range b.entries {
			if b.entries[i].util() == b.linesPerRow && (best < 0 || b.entries[i].recency < b.entries[best].recency) {
				best = i
			}
		}
		if best >= 0 {
			b.stats.FullRowEvicts++
			return best
		}
		best = 0
		for i := 1; i < len(b.entries); i++ {
			bi, bb := &b.entries[i], &b.entries[best]
			si, sb := bi.util()+bi.recency, bb.util()+bb.recency
			if si < sb || si == sb && (bi.util() < bb.util() || bi.util() == bb.util() && bi.recency < bb.recency) {
				best = i
			}
		}
		return best
	}
	for i := range b.entries {
		if b.entries[i].recency == 0 {
			return i
		}
	}
	panic("reference: full buffer without an LRU entry")
}

func (b *refBuffer) evict(i int) Eviction {
	e := &b.entries[i]
	ev := Eviction{ID: e.id, Dirty: e.dirty, Used: e.used, Util: e.util(), Late: e.late}
	e.valid = false
	for j := range b.entries {
		if b.entries[j].valid && b.entries[j].recency > e.recency {
			b.entries[j].recency--
		}
	}
	b.nValid--
	b.stats.Evictions++
	if ev.Dirty {
		b.stats.DirtyEvicts++
	}
	return ev
}

func (b *refBuffer) drop(id RowID) (Eviction, bool) {
	if i := b.find(id); i >= 0 {
		return b.evict(i), true
	}
	return Eviction{}, false
}

func (b *refBuffer) flush() []Eviction {
	evs := []Eviction{}
	for b.nValid > 0 {
		for i := range b.entries {
			if b.entries[i].valid && b.entries[i].recency == 0 {
				evs = append(evs, b.evict(i))
				break
			}
		}
	}
	return evs
}

func (b *refBuffer) recencies() []int {
	var out []int
	for _, e := range b.entries {
		if e.valid {
			out = append(out, e.recency)
		}
	}
	return out
}

// TestBufferMatchesEntryReference drives random operation streams through
// Buffer and refBuffer under both policies: every hit, eviction record,
// residency answer, recency order, statistic and Flush order must agree,
// and CheckInvariant must hold after every operation. Some rows arrive
// fully consumed, so the CAMPS-MOD fast path is exercised.
func TestBufferMatchesEntryReference(t *testing.T) {
	for _, pol := range []Policy{LRU, UtilRecency} {
		for _, tc := range []struct{ entries, lines, rows int }{{1, 4, 3}, {4, 4, 12}, {16, 8, 40}, {16, 64, 40}} {
			t.Run(fmt.Sprintf("%v/%dx%d", pol, tc.entries, tc.lines), func(t *testing.T) {
				b, ref := New(tc.entries, tc.lines, pol), newRefBuffer(tc.entries, tc.lines, pol)
				rng := rand.New(rand.NewSource(int64(tc.entries*100 + tc.lines)))
				var now sim.Time
				for op := 0; op < 30000; op++ {
					now += sim.Time(rng.Intn(1000))
					id := RowID{Bank: rng.Intn(2), Row: int64(rng.Intn(tc.rows))}
					switch k := rng.Intn(20); {
					case k < 6:
						touched := rng.Uint64() & rng.Uint64()
						if rng.Intn(8) == 0 {
							touched = ^uint64(0) // already fully consumed
						}
						ev, ok := b.Insert(id, touched, now)
						wev, wok := ref.insert(id, touched, now)
						if ev != wev || ok != wok {
							t.Fatalf("op %d: Insert(%v) = %+v,%v, reference %+v,%v", op, id, ev, ok, wev, wok)
						}
					case k < 17:
						line, write := rng.Intn(tc.lines), rng.Intn(4) == 0
						if got, want := b.Lookup(id, line, write, now), ref.lookup(id, line, write, now); got != want {
							t.Fatalf("op %d: Lookup(%v) = %v, reference %v", op, id, got, want)
						}
					case k == 17:
						ev, ok := b.drop(id)
						if wev, wok := ref.drop(id); ev != wev || ok != wok {
							t.Fatalf("op %d: drop(%v) = %+v,%v, reference %+v,%v", op, id, ev, ok, wev, wok)
						}
					case k == 18:
						b.MarkLate(id)
						if i := ref.find(id); i >= 0 {
							ref.entries[i].late = true
						}
					default:
						if got, want := b.Contains(id), ref.find(id) >= 0; got != want {
							t.Fatalf("op %d: Contains(%v) = %v, reference %v", op, id, got, want)
						}
					}
					if err := b.CheckInvariant(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					if !slices.Equal(b.recencies(), ref.recencies()) {
						t.Fatalf("op %d: recencies %v, reference %v", op, b.recencies(), ref.recencies())
					}
					if op%5000 == 4999 {
						if got, want := b.Flush(), ref.flush(); !slices.Equal(got, want) {
							t.Fatalf("op %d: Flush = %+v, reference %+v", op, got, want)
						}
					}
				}
				if got, want := b.Flush(), ref.flush(); !slices.Equal(got, want) {
					t.Fatalf("final Flush = %+v, reference %+v", got, want)
				}
				if b.Stats() != ref.stats {
					t.Fatalf("stats %+v, reference %+v", b.Stats(), ref.stats)
				}
				if b.Stats().FullRowEvicts == 0 && pol == UtilRecency {
					t.Fatal("no fully consumed row was evicted; the stream misses the fast path")
				}
			})
		}
	}
}
