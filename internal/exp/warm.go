package exp

import (
	"context"
	"fmt"
	"sync"

	"camps"
)

// warmMemo shares functional warmups among the cells of one Run, and
// hands Run's workers their cells. The warmup depends only on a cell's
// camps.WarmKey, not on its scheme, so the cells of one key take copies of
// a single camps.WarmState instead of each warming up from scratch.
//
// The first cell of a key to arrive builds the state while the others
// wait. Every cell but the key's last takes a clone; the last adopts the
// state itself, once the other cells' clones are complete, and releases it.
// So a key holds at most one live state, and only while it has cells in
// flight.
//
// A cell's run hands its state back when it returns, and the memo keeps
// one such state as a spare: the next clone or build is made in its
// memory instead of allocating a hierarchy.
type warmMemo struct {
	mu sync.Mutex
	// queue holds the cells yet to be handed out, by index into Run's
	// cells, in enumeration order; ids[i] is cell i's Cell.Key.
	queue []int
	ids   []string
	// cells maps each cell that has yet to claim a copy, by Cell.Key, to
	// its warm key.
	cells map[string]camps.WarmKey
	keys  map[camps.WarmKey]*warmEntry
	// spare is a state a finished run handed back, nil when none: the
	// memory the next clone or build reuses.
	spare *camps.WarmState
	// waited, when set, is called each time a cell attempt starts waiting
	// on another cell's build.
	waited func()
}

type warmEntry struct {
	unclaimed int              // cells of the key yet to claim a copy
	state     *camps.WarmState // nil until built
	build     *warmBuild       // the build in flight, if any
	// builder is the Cell.Key of the cell building the state, or handed
	// out to build it; "" when no cell is warming the key.
	builder string
	clones  sync.WaitGroup // clones of state in progress
}

// warmBuild is one attempt at building a key's state.
type warmBuild struct {
	ctx  context.Context // the building attempt's context
	done chan struct{}   // closed when the build ends, whatever its outcome
}

// newWarmMemo queues the pending cells and counts them per warm key;
// keys[i] is cells[i].Key().
func newWarmMemo(cells []Cell, keys []string, pending []int, o *Options) *warmMemo {
	m := &warmMemo{
		queue: pending,
		ids:   keys,
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

// next hands out the next cell to run, by index, or false when none is
// left. It takes the first queued cell whose key no cell is warming, so an
// idle worker runs a cell of a built key, or starts a new key, rather than
// wait on a sibling's build. Only when every queued cell would wait does
// it take the first, which waits. A new key thus starts only when every
// earlier cell waits on a build, so at most one build per worker is in
// flight, and a single worker runs the cells in enumeration order.
//
// The cell handed out to a key with no state becomes its builder: the key
// counts as warming from now, not from when that cell reaches acquire, so
// the next pick cannot race the build.
func (m *warmMemo) next() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return 0, false
	}
	at := 0
	for j, i := range m.queue {
		if e := m.entry(i); e == nil || e.builder == "" {
			at = j
			break
		}
	}
	i := m.queue[at]
	m.queue = append(m.queue[:at], m.queue[at+1:]...)
	if e := m.entry(i); e != nil && e.state == nil && e.builder == "" {
		e.builder = m.ids[i]
	}
	return i, true
}

// entry returns the key entry of cell i, or nil when the cell does not
// share (or has claimed its copy). m.mu must be held.
func (m *warmMemo) entry(i int) *warmEntry {
	k, ok := m.cells[m.ids[i]]
	if !ok {
		return nil
	}
	return m.keys[k]
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
	waited := false
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
			spare := m.takeSpare()
			m.mu.Unlock()
			defer e.clones.Done()
			return ws.Clone(spare), nil
		}
		b := e.build
		if b == nil {
			b = &warmBuild{ctx: ctx, done: make(chan struct{})}
			e.build, e.builder = b, ck
			rc.Warm = m.takeSpare()
			m.mu.Unlock()
			ws, err := camps.Warm(ctx, rc)
			m.mu.Lock()
			if e.build == b {
				e.build = nil
			}
			if e.builder == ck {
				e.builder = ""
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
		if !waited && m.waited != nil {
			m.waited()
		}
		waited = true
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

// takeSpare removes and returns the spare state, or nil. m.mu must be
// held.
func (m *warmMemo) takeSpare() *camps.WarmState {
	ws := m.spare
	m.spare = nil
	return ws
}

// recycle takes back ws, the state a cell's run took over, once that run
// has returned. The memo keeps it as its spare unless it holds one
// already or no cell is left to claim a copy: each spare is a whole idle
// hierarchy, so holding more raises the campaign's peak memory.
func (m *warmMemo) recycle(ws *camps.WarmState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spare == nil && len(m.cells) > 0 {
		m.spare = ws
	}
}

// release retires the cell keyed ck, once it has finished, if it never
// claimed a copy: it failed, was cancelled, or its RunCell did not execute
// it. If it was its key's builder, the key is no longer warming. The key's
// state is dropped when no cell is left to claim it.
func (m *warmMemo) release(ck string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.cells[ck]
	if !ok {
		return
	}
	delete(m.cells, ck)
	e := m.keys[k]
	if e.builder == ck {
		e.builder = ""
	}
	if e.unclaimed--; e.unclaimed == 0 {
		delete(m.keys, k)
	}
}

// drop forgets every state and count, for the cells a cancelled campaign
// never ran, and the spare, and returns how many cells were never handed
// out.
func (m *warmMemo) drop() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.queue)
	m.queue = nil
	clear(m.cells)
	clear(m.keys)
	m.spare = nil
	return n
}
