package vault

import "camps/internal/util"

type Controller struct {
	last int64
	keys []string
}

func (c *Controller) Tick(m map[string]int) {
	c.last = util.Stamp() // want `call from simulation package camps/internal/vault reaches a nondeterminism source: util.Stamp → time.Now \(wall clock\)`
	c.keys = util.Keys(m) // want `util.Keys → returns out appended under a map range without a sort \(map-iteration order\)`
	c.last = util.Wrap()  // want `util.Wrap → util.Stamp → time.Now \(wall clock\)`
}
