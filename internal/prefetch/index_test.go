package prefetch

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestKeyIndexMatchesMap drives a keyIndex and a Go map with the same
// seeded put/delete/get stream, never holding more keys than the index
// was built for, and compares every key's presence and value and the
// resident count after each operation. One key pool is the smallest keys;
// the other holds only keys homed on the first and last cells, so every
// delete backward-shifts through collided probe runs that wrap the end.
func TestKeyIndexMatchesMap(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		for _, pool := range []string{"small", "colliding"} {
			t.Run(fmt.Sprintf("cap%d-%s", capacity, pool), func(t *testing.T) {
				x := newKeyIndex(capacity)
				ref := map[int64]int64{}
				var keys []int64
				for k := int64(0); len(keys) < 2*capacity+2; k++ {
					if h := x.home(k); pool == "small" || h == 0 || h == x.mask {
						keys = append(keys, k)
					}
				}
				rng := rand.New(rand.NewSource(int64(capacity)))
				for op := 0; op < 3000; op++ {
					k := keys[rng.Intn(len(keys))]
					switch rng.Intn(3) {
					case 0:
						if _, ok := ref[k]; ok || len(ref) < capacity {
							v := rng.Int63()
							x.put(k, v)
							ref[k] = v
						}
					case 1:
						got, ok := x.delete(k)
						want, wantOK := ref[k]
						if ok != wantOK || got != want {
							t.Fatalf("op %d: delete(%d) = %d,%v, map %d,%v", op, k, got, ok, want, wantOK)
						}
						delete(ref, k)
					}
					for _, k := range keys {
						got, ok := x.get(k)
						want, wantOK := ref[k]
						if ok != wantOK || ok && got != want {
							t.Fatalf("op %d: get(%d) = %d,%v, map %d,%v", op, k, got, ok, want, wantOK)
						}
					}
					if n := x.count(); n != len(ref) {
						t.Fatalf("op %d: %d keys resident, map %d", op, n, len(ref))
					}
				}
			})
		}
	}
}

// A negative key is never resident: -1 marks empty cells, so a lookup or
// delete of it must not match one.
func TestKeyIndexNegativeKeyAbsent(t *testing.T) {
	x := newKeyIndex(4)
	x.put(3, 7)
	if _, ok := x.get(-1); ok {
		t.Fatal("get(-1) found an empty cell")
	}
	if _, ok := x.delete(-1); ok {
		t.Fatal("delete(-1) removed an empty cell")
	}
	if v, ok := x.get(3); !ok || v != 7 || x.count() != 1 {
		t.Fatalf("get(3) = %d,%v with %d resident, want 7,true with 1", v, ok, x.count())
	}
}
