package serve

import (
	"context"
	"sync/atomic"
)

// Quota bounds one tenant's slice of the daemon. Zero-valued fields
// inherit the server defaults; TickBudget 0 means unlimited.
type Quota struct {
	// MaxInFlightCells caps the tenant's concurrently executing cells
	// across all of its jobs (cache hits and resumed cells do not occupy
	// a slot for long, but they do pass through the gate).
	MaxInFlightCells int `json:"max_inflight_cells,omitempty"`
	// MaxQueuedJobs caps jobs waiting in the admission queue (running
	// jobs do not count). Submissions beyond it are rejected quota_jobs.
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
	// TickBudget is the tenant's cumulative simulated-time entitlement
	// in picoseconds, charged per freshly executed cell (cache hits and
	// resumed cells are free). Once spent, submissions are rejected
	// quota_ticks. 0 = unlimited.
	TickBudget int64 `json:"tick_budget_ps,omitempty"`
}

// withDefaults fills zero fields from def.
func (q Quota) withDefaults(def Quota) Quota {
	if q.MaxInFlightCells == 0 {
		q.MaxInFlightCells = def.MaxInFlightCells
	}
	if q.MaxQueuedJobs == 0 {
		q.MaxQueuedJobs = def.MaxQueuedJobs
	}
	if q.TickBudget == 0 {
		q.TickBudget = def.TickBudget
	}
	return q
}

// tenant is the runtime state for one tenant. Counters are guarded by
// the server mutex; slots is a semaphore drained by worker goroutines.
type tenant struct {
	quota Quota

	queued int // jobs in the wait queue
	ticks  int64

	// slots is the in-flight-cell semaphore (capacity
	// quota.MaxInFlightCells); nil until the first job runs.
	slots chan struct{}
}

// overTickBudget reports whether the tenant has spent its entitlement.
func (t *tenant) overTickBudget() bool {
	return t.quota.TickBudget > 0 && t.ticks >= t.quota.TickBudget
}

// cellSlots lazily builds the tenant's in-flight-cell semaphore.
func (t *tenant) cellSlots() chan struct{} {
	if t.slots == nil {
		n := t.quota.MaxInFlightCells
		if n <= 0 {
			n = 1
		}
		t.slots = make(chan struct{}, n)
	}
	return t.slots
}

// slotGate implements exp.Gate over two semaphores: the server-wide
// worker pool and the job's tenant cap. Acquisition order is fixed
// (global, then tenant) and Release unwinds in reverse, so gates for
// different tenants can never deadlock against each other. inflight
// mirrors the held-slot count for the serve.inflight_cells gauge.
type slotGate struct {
	global   chan struct{}
	tenant   chan struct{}
	inflight *atomic.Int64
}

func (g *slotGate) Acquire(ctx context.Context) error {
	select {
	case g.global <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case g.tenant <- struct{}{}:
	case <-ctx.Done():
		<-g.global
		return ctx.Err()
	}
	g.inflight.Add(1)
	return nil
}

func (g *slotGate) Release() {
	<-g.tenant
	<-g.global
	g.inflight.Add(-1)
}
