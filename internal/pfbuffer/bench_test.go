package pfbuffer

import (
	"math/rand"
	"testing"

	"camps/internal/sim"
)

// bufferRef is one demand reference of bufferTraffic.
type bufferRef struct {
	id    RowID
	line  int
	write bool
}

// Shape of bufferTraffic: a reference names one of the last
// bufferTrafficWindow rows it introduced with probability
// bufferTrafficReuse, else a fresh row.
const (
	bufferTrafficReuse  = 0.35
	bufferTrafficWindow = 16
)

// bufferTraffic returns n demand references for a 16-entry buffer of
// 16-line rows, replayed by playBuffer: a missing row is prefetched on
// its miss, so fresh rows miss and recent ones often hit, at about the
// 22% buffer hit rate measured on LM2 under CAMPS-MOD (400k instructions
// per core, seed 2; TestBufferTrafficShape).
func bufferTraffic(n int, seed int64) []bufferRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]bufferRef, n)
	var next int64
	for i := range refs {
		row := next
		if next > 0 && rng.Float64() < bufferTrafficReuse {
			row = next - 1 - rng.Int63n(min(next, bufferTrafficWindow))
		} else {
			next++
		}
		refs[i] = bufferRef{RowID{Bank: int(row % 16), Row: row}, rng.Intn(16), rng.Intn(4) == 0}
	}
	return refs
}

// playBuffer resolves n references of the cyclic stream refs through b,
// prefetching each row that misses, and returns the hits.
func playBuffer(b *Buffer, refs []bufferRef, n int) (hits int) {
	for i := range n {
		r := &refs[i%len(refs)]
		now := sim.Time(i)
		if b.Lookup(r.id, r.line, r.write, now) {
			hits++
		} else {
			b.Insert(r.id, 0, now)
		}
	}
	return hits
}

// The benchmark's traffic keeps the measured hit rate, also when its
// stream is replayed from the start, and keeps the buffer full.
func TestBufferTrafficShape(t *testing.T) {
	refs := bufferTraffic(1<<16, 1)
	b := New(16, 16, UtilRecency)
	hits := playBuffer(b, refs, 3*len(refs))
	rate := float64(hits) / float64(3*len(refs))
	t.Logf("hit rate %.3f", rate)
	if rate < 0.20 || rate > 0.26 {
		t.Fatalf("hit rate %.3f, want 0.20..0.26", rate)
	}
	if b.nValid != len(b.entries) {
		t.Fatalf("%d of %d entries resident", b.nValid, len(b.entries))
	}
}

// BenchmarkBufferLookup measures one demand reference to a CAMPS-MOD
// buffer at the measured hit rate: the search, a hit's promotion, and on
// a miss the prefetch's insert and eviction.
func BenchmarkBufferLookup(b *testing.B) {
	refs := bufferTraffic(1<<16, 1)
	buf := New(16, 16, UtilRecency)
	playBuffer(buf, refs, len(refs))
	b.ReportAllocs()
	b.ResetTimer()
	playBuffer(buf, refs, b.N)
}
