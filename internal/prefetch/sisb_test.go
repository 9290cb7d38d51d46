package prefetch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"camps/internal/config"
)

// refSISB is the reference sisb training table: a Go map with the same
// FIFO ring of trained keys, as the table was first written.
type refSISB struct {
	next       map[int64]int64
	ring       []int64
	head, size int
}

func (r *refSISB) train(prev, key int64) {
	if _, known := r.next[prev]; !known {
		if r.size == len(r.ring) {
			delete(r.next, r.ring[r.head])
			r.ring[r.head] = prev
			r.head = (r.head + 1) % len(r.ring)
		} else {
			r.ring[(r.head+r.size)%len(r.ring)] = prev
			r.size++
		}
	}
	r.next[prev] = key
}

// TestSISBTableMatchesReference drives the open-addressed training table
// and the map reference with the same seeded training stream, then
// compares every key's successor, the table's occupancy and the FIFO ring
// after each step. One key pool is the smallest keys; the other holds only
// keys hashing to the first and last cells, so FIFO evictions delete
// through collided, wrapping probe runs.
func TestSISBTableMatchesReference(t *testing.T) {
	for entries := 1; entries <= 8; entries++ {
		for _, pool := range []string{"small", "colliding"} {
			t.Run(fmt.Sprintf("entries%d-%s", entries, pool), func(t *testing.T) {
				cfg := config.Default().SISB
				cfg.TableEntries = entries
				e := newSISB(cfg, testCtx(nil))
				ref := &refSISB{next: map[int64]int64{}, ring: make([]int64, entries)}
				var keys []int64
				for k := int64(0); len(keys) < 2*entries+2; k++ {
					if h := e.next.home(k); pool == "small" || h == 0 || h == e.next.mask {
						keys = append(keys, k)
					}
				}
				rng := rand.New(rand.NewSource(int64(entries)))
				for op := 0; op < 3000; op++ {
					prev, key := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
					e.train(prev, key)
					ref.train(prev, key)
					if resident := e.next.count(); resident != len(ref.next) || e.head != ref.head || e.size != ref.size || !slices.Equal(e.ring, ref.ring) {
						t.Fatalf("op %d: %d resident, ring %v head %d size %d; reference %d, %v, %d, %d",
							op, resident, e.ring, e.head, e.size, len(ref.next), ref.ring, ref.head, ref.size)
					}
					for _, k := range keys {
						got, ok := e.next.get(k)
						want, wantOK := ref.next[k]
						if ok != wantOK || ok && got != want {
							t.Fatalf("op %d: key %d -> %d,%v, reference %d,%v",
								op, k, got, ok, want, wantOK)
						}
					}
				}
			})
		}
	}
}
