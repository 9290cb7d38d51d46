// Golden file for the simdeterminism analyzer: camps/internal/vault is a
// simulation package, so wall-clock reads and global RNG are findings;
// owned generators are not.
package vault

import (
	"math/rand"
	"time"
)

func BadWallClock() time.Duration {
	t0 := time.Now()             // want `time.Now in simulation package`
	time.Sleep(time.Millisecond) // want `time.Sleep in simulation package`
	return time.Since(t0)        // want `time.Since in simulation package`
}

func BadTimer() {
	_ = time.After(time.Second)          // want `time.After in simulation package`
	time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc in simulation package`
}

func BadGlobalRand() int {
	rand.Seed(1)          // want `global math/rand.Seed in simulation package`
	return rand.Intn(100) // want `global math/rand.Intn in simulation package`
}

func GoodOwnedRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors are deterministic given the seed
	return r.Intn(100)
}

func GoodTimeArithmetic(a, b time.Time) time.Duration {
	return b.Sub(a) // methods on stored values never read the clock
}
