package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"camps"
	"camps/internal/exp"
	"camps/internal/obs"
)

// kick nudges the dispatcher without blocking (the channel is a
// level-triggered doorbell, not a queue).
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// kickDone nudges the drain loop that a job just finished.
func (s *Server) kickDone() {
	select {
	case s.jobDone <- struct{}{}:
	default:
	}
}

// dispatch is the scheduling loop: on every doorbell it starts as many
// queued jobs as MaxActiveJobs allows, picking tenants round-robin so a
// tenant with a deep queue cannot starve the others (fair share; each
// tenant's own jobs stay FIFO).
func (s *Server) dispatch(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
		for s.startOne(ctx) {
		}
	}
}

// startOne moves at most one queued job into execution; it reports
// whether it did (so the dispatcher keeps going until the queue or the
// job slots are exhausted).
func (s *Server) startOne(ctx context.Context) bool {
	s.mu.Lock()
	if s.draining || s.activeJobs >= s.cfg.MaxActiveJobs {
		s.mu.Unlock()
		return false
	}
	j := s.pickLocked()
	if j == nil {
		s.mu.Unlock()
		return false
	}
	slots := s.tenantLocked(j.tenant).cellSlots()
	jctx, cancel := context.WithCancel(ctx)
	if !j.deadline.IsZero() {
		jctx, cancel = context.WithDeadline(ctx, j.deadline)
	}
	j.cancel = cancel
	j.state = StateRunning
	s.activeJobs++
	rec := jobRecord{Seq: j.seq, ID: j.id, Tenant: j.tenant, State: StateRunning, Cells: j.cells}
	if err := s.journal.append(rec); err != nil {
		s.logf("journal: recording %s running: %v", j.id, err)
	}
	st := j.statusLocked()
	s.mu.Unlock()
	s.publishState(j, st)
	go s.runJob(jctx, cancel, j, slots)
	return true
}

// pickLocked dequeues the next job under the round-robin cursor; the
// server mutex must be held. The queue map only ever holds non-empty
// tenant queues.
func (s *Server) pickLocked() *job {
	names := sortedKeys(s.queue)
	if len(names) == 0 {
		return nil
	}
	name := names[s.rrIdx%len(names)]
	q := s.queue[name]
	j := q[0]
	if len(q) == 1 {
		delete(s.queue, name)
	} else {
		s.queue[name] = q[1:]
	}
	s.rrIdx++ // advance so the next pick favors the following tenant
	s.tenants[name].queued--
	s.queuedTotal--
	return j
}

// cellEvent is the SSE "cell" frame: one completed cell with just
// enough results to follow a campaign live.
type cellEvent struct {
	Key        string  `json:"key"`
	Resumed    bool    `json:"resumed,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Attempt    int     `json:"attempt,omitempty"`
	GeoMeanIPC float64 `json:"geomean_ipc"`
	ElapsedPS  int64   `json:"elapsed_ps"`
}

// resultKey rebuilds a CellResult's checkpoint key (the same string
// Cell.Key produces).
func resultKey(cr exp.CellResult) string {
	k := fmt.Sprintf("%s/%v/seed=%d", cr.Mix, cr.Scheme, cr.Seed)
	if cr.Knob != "" {
		k += fmt.Sprintf("/%s=%d", cr.Knob, cr.Value)
	}
	return k
}

// runJob executes one admitted job as an exp campaign: checkpointed to
// the job's cell store, gated by the global and tenant semaphores,
// cache-aware, and streaming progress over SSE. It classifies the
// campaign's exit into the job's terminal state — or, under drain,
// leaves the job checkpointed and non-terminal so the next daemon
// resumes it.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, tenantSlots chan struct{}) {
	defer cancel()
	defer func() {
		s.mu.Lock()
		s.activeJobs--
		s.mu.Unlock()
		s.kickDone()
		s.kick()
	}()

	// cachedKeys marks cells served from the result cache, so the
	// Progress callback (which only sees CellResults) can attribute them:
	// cached and resumed cells are free of tick charges.
	var cachedKeys sync.Map

	// The spec was validated at admission; an expansion error means the
	// journal was hand-edited.
	cells, opts, err := j.spec.Expand(exp.Options{
		System:      s.cfg.System,
		Parallelism: min(s.cfg.Workers, j.spec.CellCount()),
		CellTimeout: s.cfg.CellTimeout,
		Retries:     s.cfg.Retries,
		Checkpoint:  s.cellStorePath(j.id),
		Resume:      true,
		Gate:        &slotGate{global: s.globalSlots, tenant: tenantSlots, inflight: &s.inflight},
		RunCell: func(ctx context.Context, c exp.Cell, o *exp.Options) (camps.Results, error) {
			key := cacheKey(s.sysHash, &j.spec, c)
			if res, ok := s.cache.get(key); ok {
				cachedKeys.Store(c.Key(), true)
				return res, nil
			}
			s.m.cacheMisses.Add(1)
			run := s.runCell
			if run == nil {
				run = exp.ExecuteCell
			}
			res, err := run(ctx, c, o)
			if err == nil {
				s.cache.put(key, res)
			}
			return res, err
		},
		Progress: func(cr exp.CellResult) {
			key := resultKey(cr)
			_, hit := cachedKeys.Load(key)
			s.mu.Lock()
			j.cellsDone++
			if hit {
				j.cached++
			}
			if !cr.Resumed && !hit {
				t := int64(cr.Results.ElapsedSim)
				j.ticks += t
				s.tenantLocked(j.tenant).ticks += t
			}
			s.mu.Unlock()
			switch {
			case cr.Resumed:
				s.m.cellsResumed.Add(1)
			case hit:
				s.m.cellsCached.Add(1)
			default:
				s.m.cellsExecuted.Add(1)
			}
			payload, _ := json.Marshal(cellEvent{
				Key: key, Resumed: cr.Resumed, Cached: hit, Attempt: cr.Attempt,
				GeoMeanIPC: cr.Results.GeoMeanIPC, ElapsedPS: int64(cr.Results.ElapsedSim),
			})
			j.stream.PublishFrame("cell", payload)
		},
	})
	if err != nil {
		s.finishJob(j, StateFailed, "expanding spec: "+err.Error())
		return
	}
	if j.spec.StreamEpochs {
		opts.CellObs = func(c exp.Cell) *obs.Suite {
			key := c.Key()
			suite := obs.NewSuite(64)
			suite.OnSnapshot = func(snap obs.Snapshot) {
				payload, err := json.Marshal(struct {
					Cell string `json:"cell"`
					obs.Snapshot
				}{key, snap})
				if err == nil {
					j.stream.PublishFrame("epoch", payload)
				}
			}
			return suite
		}
	}

	_, _, err = exp.Run(ctx, cells, opts)
	if err == nil {
		s.finishJob(j, StateDone, "")
		return
	}

	s.mu.Lock()
	draining := s.draining
	reason := j.cancelReason
	s.mu.Unlock()
	switch {
	case reason != "":
		// Client cancel or heartbeat reaping set the reason before
		// cancelling the context.
		s.finishJob(j, StateCancelled, reason)
	case ctx.Err() == context.DeadlineExceeded:
		s.finishJob(j, StateFailed, "deadline exceeded")
	case ctx.Err() != nil && draining:
		// Graceful drain: deliberately NOT terminal. The journal still says
		// running, so the next daemon re-queues the job and its checkpoint
		// store resumes the completed cells.
		s.logf("job %s checkpointed for drain", j.id)
	case ctx.Err() != nil:
		s.finishJob(j, StateCancelled, "cancelled")
	default:
		s.finishJob(j, StateFailed, err.Error())
	}
}

// finishJob records a running job's terminal state: journal (fsync'd),
// metrics, and the SSE terminal event.
func (s *Server) finishJob(j *job, state, reason string) {
	s.mu.Lock()
	j.state, j.reason = state, reason
	j.cancel = nil
	if err := s.journal.append(s.terminalRecordLocked(j)); err != nil {
		s.logf("journal: recording %s %s: %v", j.id, state, err)
	}
	s.maybeCompactLocked()
	s.bumpTerminal(state)
	payload, _ := json.Marshal(j.statusLocked())
	s.mu.Unlock()
	j.stream.Close(payload)
}

// finishQueuedLocked terminates a job that never started (cancel before
// dispatch, reaping, queued-deadline): it leaves the queue, its terminal
// record is journaled, and the returned frame must be passed to
// j.stream.Close by the caller after the mutex is released.
func (s *Server) finishQueuedLocked(j *job, state, reason string) []byte {
	q := s.queue[j.tenant]
	for i, other := range q {
		if other == j {
			rest := append(q[:i:i], q[i+1:]...)
			if len(rest) == 0 {
				delete(s.queue, j.tenant)
			} else {
				s.queue[j.tenant] = rest
			}
			s.tenantLocked(j.tenant).queued--
			s.queuedTotal--
			break
		}
	}
	j.state, j.reason = state, reason
	if err := s.journal.append(s.terminalRecordLocked(j)); err != nil {
		s.logf("journal: recording %s %s: %v", j.id, state, err)
	}
	s.maybeCompactLocked()
	s.bumpTerminal(state)
	payload, _ := json.Marshal(j.statusLocked())
	return payload
}

func (s *Server) terminalRecordLocked(j *job) jobRecord {
	return jobRecord{
		Seq: j.seq, ID: j.id, Tenant: j.tenant, State: j.state, Reason: j.reason,
		Cells: j.cells, CellsDone: j.cellsDone, Cached: j.cached, Ticks: j.ticks,
	}
}

func (s *Server) maybeCompactLocked() {
	if s.journal.needsCompaction() {
		if err := s.journal.compact(); err != nil {
			s.logf("journal: compacting: %v", err)
		}
	}
}

func (s *Server) bumpTerminal(state string) {
	switch state {
	case StateDone:
		s.m.jobsDone.Add(1)
	case StateFailed:
		s.m.jobsFailed.Add(1)
	case StateCancelled:
		s.m.jobsCancelled.Add(1)
	}
}

// heartbeatGrace is how long a job may go without a heartbeat before the
// reaper takes it: three missed beats.
func heartbeatGrace(heartbeatMS int64) time.Duration {
	if heartbeatMS <= 0 {
		return 0
	}
	return 3 * time.Duration(heartbeatMS) * time.Millisecond
}

// reap periodically cancels abandoned jobs (heartbeat lost) and fails
// queued jobs whose deadline passed before they ever started. Running
// jobs' deadlines are enforced by their contexts; the reaper only covers
// the queued window.
func (s *Server) reap(ctx context.Context) {
	t := time.NewTicker(s.reapEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := s.now()
		var cancels []context.CancelFunc
		type closing struct {
			stream *obs.StreamServer
			frame  []byte
		}
		var closers []closing
		s.mu.Lock()
		for _, id := range sortedKeys(s.jobs) {
			j := s.jobs[id]
			grace := heartbeatGrace(j.spec.HeartbeatMS)
			stale := grace > 0 && now.Sub(j.lastBeat) > grace
			switch j.state {
			case StateQueued:
				dead := !j.deadline.IsZero() && now.After(j.deadline)
				if !stale && !dead {
					continue
				}
				state, reason := StateCancelled, "reaped: heartbeat lost"
				if dead {
					state, reason = StateFailed, "deadline exceeded before start"
				} else {
					s.m.jobsReaped.Add(1)
				}
				frame := s.finishQueuedLocked(j, state, reason)
				closers = append(closers, closing{j.stream, frame})
			case StateRunning:
				if stale && j.cancelReason == "" {
					j.cancelReason = "reaped: heartbeat lost"
					s.m.jobsReaped.Add(1)
					if j.cancel != nil {
						cancels = append(cancels, j.cancel)
					}
				}
			}
		}
		s.mu.Unlock()
		for _, c := range cancels {
			c()
		}
		for _, cl := range closers {
			cl.stream.Close(cl.frame)
		}
	}
}

// Run serves the daemon on ln until ctx is cancelled, then drains:
// admission closes (503 draining), running jobs get DrainTimeout to
// finish, stragglers are cancelled and left checkpointed for the next
// daemon, every SSE subscriber receives a terminal event, and the
// journal is compacted and closed. Returns nil after a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	jobsCtx, killJobs := context.WithCancel(context.Background())
	defer killJobs()
	go s.dispatch(jobsCtx)
	go s.reap(jobsCtx)
	s.kick() // schedule jobs recovered from the journal

	httpSrv := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	var retErr error
	select {
	case retErr = <-serveErr:
	case <-ctx.Done():
	}

	s.mu.Lock()
	s.draining = true
	active := s.activeJobs
	s.mu.Unlock()
	s.logf("draining: %d active job(s), budget %v", active, s.cfg.DrainTimeout)

	deadline := time.NewTimer(s.cfg.DrainTimeout)
	defer deadline.Stop()
	if !s.waitActive(deadline.C) {
		s.logf("drain deadline passed; cancelling in-flight jobs (checkpoints preserved)")
		killJobs()
		// Cancelled campaigns unwind within exp's hang grace; give them a
		// bounded second window rather than waiting forever.
		fallback := time.NewTimer(10 * time.Second)
		defer fallback.Stop()
		s.waitActive(fallback.C)
	}

	s.flushStreams()

	s.mu.Lock()
	s.maybeCompactLocked()
	if err := s.journal.close(); err != nil {
		s.logf("journal: close: %v", err)
	}
	s.mu.Unlock()

	shCtx, cancelSh := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelSh()
	_ = httpSrv.Shutdown(shCtx)
	_ = httpSrv.Close()
	return retErr
}

// waitActive blocks until no job is running or the deadline channel
// fires; it reports whether the count reached zero.
func (s *Server) waitActive(deadline <-chan time.Time) bool {
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	for {
		s.mu.Lock()
		n := s.activeJobs
		s.mu.Unlock()
		if n == 0 {
			return true
		}
		select {
		case <-s.jobDone:
		case <-poll.C:
		case <-deadline:
			return false
		}
	}
}

// flushStreams closes every job's SSE stream with a terminal event.
// Jobs that finished normally already closed theirs (Close is
// idempotent); jobs held over for the next daemon report state
// "drained" so subscribers know to reconnect after the restart.
func (s *Server) flushStreams() {
	type closing struct {
		stream *obs.StreamServer
		frame  []byte
	}
	var toClose []closing
	s.mu.Lock()
	for _, id := range sortedKeys(s.jobs) {
		j := s.jobs[id]
		if j.stream == nil {
			continue
		}
		st := j.statusLocked()
		if !terminalState(j.state) {
			st.State = "drained"
			st.Reason = "daemon shutting down; job resumes on restart"
		}
		payload, _ := json.Marshal(st)
		toClose = append(toClose, closing{j.stream, payload})
	}
	s.mu.Unlock()
	for _, c := range toClose {
		c.stream.Close(c.frame)
	}
}
