// Package serve is the robustness layer that turns the camps simulation
// library into a long-running, multi-tenant simulation-as-a-service
// daemon (cmd/campserve). It accepts campaign jobs over HTTP, runs them
// on the internal/exp worker pool, and wraps every request path in the
// machinery a shared simulator needs to survive production traffic:
//
//   - token-bucket admission control with typed 429/Retry-After
//     rejections and a bounded wait queue;
//   - per-tenant quotas (in-flight cells, queued jobs, cumulative
//     simulated-tick budget) with fair-share scheduling across tenants;
//   - priority-aware load shedding driven by queue depth — work is shed
//     at the admission boundary only, never after acceptance;
//   - per-job deadlines, client cancellation, and heartbeat-based
//     abandonment reaping;
//   - a deterministic result cache keyed by the full cell identity
//     (system config, mix, scheme, seed, knob, faults, run lengths), so
//     repeated cells are served without simulating — sound because CAMPS
//     results are pure functions of that tuple;
//   - crash-safe persistence: every job transitions through an fsync'd
//     JSONL journal and every completed cell lands in an fsync'd
//     per-job checkpoint store, so a SIGKILL'd daemon restarts, repairs
//     both, resumes in-flight campaigns where they stopped, and
//     re-reports previously-streamed results idempotently;
//   - graceful drain on SIGTERM: stop admitting, finish or checkpoint
//     in-flight cells within a drain deadline, and flush every SSE
//     subscriber with a terminal event.
//
// See docs/SERVING.md for the HTTP API and the job-spec grammar.
package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"camps/internal/exp"
	"camps/internal/obs"
)

// Job states. A job is born queued, runs at most once at a time, and
// ends in exactly one of the terminal states. A daemon crash can leave
// a job in StateQueued or StateRunning; recovery re-queues both (the
// per-job checkpoint store makes re-running cheap and exact).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"      // terminal: every cell completed
	StateFailed    = "failed"    // terminal: a cell failed, or the deadline passed
	StateCancelled = "cancelled" // terminal: client cancel, or heartbeat reaping
)

// terminalState reports whether state is one a job never leaves.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobSpec is the client-submitted description of one campaign: the
// campaign itself (exp.Spec: mixes × schemes × seeds, × knob values when
// a knob sweep is requested, with run lengths and a fault environment)
// plus the daemon's scheduling fields. The zero values of the optional
// fields inherit the daemon's defaults.
type JobSpec struct {
	// Tenant names the submitting tenant; the X-Tenant header overrides
	// it, and an empty value falls back to "anon".
	Tenant string `json:"tenant,omitempty"`
	// Priority (1 lowest .. 9 highest; 0/absent selects the default 4)
	// orders load shedding: as the wait queue fills up, lower-priority
	// submissions are shed first.
	Priority int `json:"priority,omitempty"`
	// Spec is the campaign. Its fields sit between priority and
	// deadline_ms in the wire and journal JSON, so the embedding stays
	// here. Its zero Instr and Warmup select the daemon defaults.
	exp.Spec
	// DeadlineMS bounds the job's wall-clock life from submission;
	// a job that exceeds it fails with reason "deadline" (0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// HeartbeatMS, when >0, requires the client to POST
	// /v1/jobs/{id}/heartbeat at least every 3×HeartbeatMS; a job whose
	// client goes silent is reaped (cancelled), freeing its resources.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// StreamEpochs forwards every cell's obs epoch snapshots to the
	// job's SSE stream (off by default: a large campaign generates many
	// thousands of epoch frames).
	StreamEpochs bool `json:"stream_epochs,omitempty"`
}

// normalize fills spec defaults in place. Called once at admission so
// the journaled spec is self-contained.
func (spec *JobSpec) normalize(defInstr, defWarmup uint64) {
	if spec.Tenant == "" {
		spec.Tenant = "anon"
	}
	if spec.Priority == 0 {
		spec.Priority = defaultPriority
	}
	spec.NormalizeSeeds()
	if spec.Instr == 0 {
		spec.Instr = defInstr
	}
	if spec.Warmup == 0 {
		spec.Warmup = defWarmup
	}
}

// defaultPriority sits mid-scale so both directions of the shed policy
// are reachable without setting the field.
const defaultPriority = 4

// validate checks the spec against the registries and limits, returning
// a client-facing error. maxCells bounds the expanded campaign size,
// checked before any cell is built.
func (spec *JobSpec) validate(maxCells int) error {
	if spec.Priority < 0 || spec.Priority > 9 {
		return fmt.Errorf("priority %d out of range [0,9]", spec.Priority)
	}
	if err := spec.Spec.Validate(); err != nil {
		return err
	}
	if spec.DeadlineMS < 0 || spec.HeartbeatMS < 0 {
		return errors.New("deadline_ms and heartbeat_ms must be non-negative")
	}
	if n := spec.CellCount(); n > maxCells {
		return fmt.Errorf("campaign expands to %d cells, above the per-job limit %d", n, maxCells)
	}
	return nil
}

// job is the server-side state of one campaign. Fields are guarded by
// the server mutex unless noted.
type job struct {
	id     string
	seq    uint64
	tenant string
	spec   JobSpec

	state  string
	reason string // human-readable cause for failed/cancelled

	cells     int   // expanded campaign size
	cellsDone int   // completed cells (resumed + cached + executed)
	cached    int   // cells served from the result cache
	ticks     int64 // cumulative simulated picoseconds charged to the tenant

	lastBeat time.Time // last heartbeat (or submission)
	deadline time.Time // zero when the spec set no deadline

	// cancel tears down the running job's context; nil unless running.
	cancel       context.CancelFunc
	cancelReason string // set before cancel() so the runner can attribute the stop

	// stream fans job events (state transitions, per-cell completions,
	// optional epochs) out to SSE subscribers. Created at admission;
	// nil for jobs recovered into a terminal state, whose events
	// handler synthesizes a terminal-only stream.
	stream *obs.StreamServer
}

// status is the JSON shape of GET /v1/jobs/{id} (and of SSE "state"
// events' job summary).
type status struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Reason    string `json:"reason,omitempty"`
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	Cached    int    `json:"cached"`
	TicksUsed int64  `json:"ticks_used"`
}

// statusLocked snapshots the job; the server mutex must be held.
func (j *job) statusLocked() status {
	return status{
		ID: j.id, Tenant: j.tenant, State: j.state, Reason: j.reason,
		Cells: j.cells, CellsDone: j.cellsDone, Cached: j.cached,
		TicksUsed: j.ticks,
	}
}
