package exp

import (
	"context"
	"fmt"
	"sync"

	"camps"
)

// warmMemo shares functional warmups among the cells of one Run. The
// warmup depends only on a cell's camps.WarmKey, not on its scheme, so the
// cells of one key take copies of a single camps.WarmState instead of each
// warming up from scratch.
//
// The first cell of a key to arrive builds the state while the others
// wait. Every cell but the key's last takes a clone; the last adopts the
// state itself, once the other cells' clones are complete, and releases it.
// So a key holds at most one live state, and only while it has cells in
// flight.
type warmMemo struct {
	mu sync.Mutex
	// cells maps each cell that has yet to claim a copy, by Cell.Key, to
	// its warm key.
	cells map[string]camps.WarmKey
	keys  map[camps.WarmKey]*warmEntry
}

type warmEntry struct {
	unclaimed int              // cells of the key yet to claim a copy
	state     *camps.WarmState // nil until built
	build     *warmBuild       // the build in flight, if any
	clones    sync.WaitGroup   // clones of state in progress
}

// warmBuild is one attempt at building a key's state.
type warmBuild struct {
	ctx  context.Context // the building attempt's context
	done chan struct{}   // closed when the build ends, whatever its outcome
}

// newWarmMemo counts the pending cells of each warm key; keys[i] is
// cells[i].Key().
func newWarmMemo(cells []Cell, keys []string, pending []int, o *Options) *warmMemo {
	m := &warmMemo{
		cells: make(map[string]camps.WarmKey, len(pending)),
		keys:  make(map[camps.WarmKey]*warmEntry),
	}
	for _, i := range pending {
		k, ok := warmKey(o, cells[i])
		if !ok {
			continue
		}
		m.cells[keys[i]] = k
		e := m.keys[k]
		if e == nil {
			e = &warmEntry{}
			m.keys[k] = e
		}
		e.unclaimed++
	}
	return m
}

// warmKey returns cell c's warm key, or false when c's Apply panics: that
// cell runs unshared and fails inside its own attempt, as a PanicError.
func warmKey(o *Options, c Cell) (k camps.WarmKey, ok bool) {
	defer func() { _ = recover() }()
	return o.runConfig(c).WarmKey(), true
}

// acquire returns the warm state cell c's run rc starts from: a clone of
// its key's state, or the state itself for the key's last cell. It returns
// nil and no error when c does not share: a retry of a cell that already
// claimed its copy, or a cell (or configuration) the campaign did not
// count. That run warms up by itself.
//
// A failed or cancelled build is not kept, and its error goes only to the
// cell that built it: a waiting cell builds the state again. Waiters also
// give up on a build whose context is done, so a builder abandoned as hung
// cannot hold its siblings.
func (m *warmMemo) acquire(ctx context.Context, c Cell, rc camps.RunConfig) (*camps.WarmState, error) {
	ck := c.Key()
	m.mu.Lock()
	k, ok := m.cells[ck]
	if !ok || k != rc.WarmKey() {
		m.mu.Unlock()
		return nil, nil
	}
	e := m.keys[k]
	for {
		if err := ctx.Err(); err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("exp: cell cancelled awaiting its warm state: %w", err)
		}
		if ws := e.state; ws != nil {
			delete(m.cells, ck)
			if e.unclaimed--; e.unclaimed == 0 {
				delete(m.keys, k)
				m.mu.Unlock()
				e.clones.Wait()
				return ws, nil
			}
			e.clones.Add(1)
			m.mu.Unlock()
			defer e.clones.Done()
			return ws.Clone(), nil
		}
		b := e.build
		if b == nil {
			b = &warmBuild{ctx: ctx, done: make(chan struct{})}
			e.build = b
			m.mu.Unlock()
			ws, err := camps.Warm(ctx, rc)
			m.mu.Lock()
			if e.build == b {
				e.build = nil
			}
			if err == nil && e.state == nil {
				e.state = ws
			}
			close(b.done)
			if err != nil {
				m.mu.Unlock()
				return nil, err
			}
			continue
		}
		m.mu.Unlock()
		select {
		case <-b.done:
		case <-b.ctx.Done(): // the build will fail; take it over
		case <-ctx.Done():
		}
		m.mu.Lock()
		if e.build == b && b.ctx.Err() != nil {
			e.build = nil
		}
	}
}

// release retires the cell keyed ck, once it has finished, if it never
// claimed a copy: it failed, was cancelled, or its RunCell did not execute
// it. The key's state is dropped when no cell is left to claim it.
func (m *warmMemo) release(ck string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.cells[ck]
	if !ok {
		return
	}
	delete(m.cells, ck)
	e := m.keys[k]
	if e.unclaimed--; e.unclaimed == 0 {
		delete(m.keys, k)
	}
}

// drop forgets every state and count, for the cells a cancelled campaign
// never ran.
func (m *warmMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.cells)
	clear(m.keys)
}
