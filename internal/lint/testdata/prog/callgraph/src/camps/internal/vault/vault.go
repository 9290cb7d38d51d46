package vault

import (
	"camps/internal/sim"
	"camps/internal/tally"
)

// Controller owns one vault's state.
type Controller struct{ served int }

func (c *Controller) Submit(addr uint64) {
	c.served++
	tally.Bump(addr)
	sim.Post(addr)
}

func (c *Controller) Flush() { c.reset() }

func (c *Controller) reset() { c.served = 0 }
