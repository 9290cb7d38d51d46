package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camps"
	"camps/internal/exp"
	"camps/internal/obs"
)

// Config parameterizes the daemon. The zero value of every field except
// DataDir inherits a production-shaped default.
type Config struct {
	// DataDir holds the job journal and the per-job cell checkpoint
	// stores. Required; created if missing. A daemon restarted on the
	// same DataDir recovers its jobs.
	DataDir string
	// System is the base hardware configuration every cell starts from
	// (zero value: Table I). Job knob sweeps mutate copies.
	System camps.SystemConfig
	// Workers caps concurrently executing cells daemon-wide (default
	// NumCPU).
	Workers int
	// MaxActiveJobs caps concurrently running jobs (default 8); queued
	// jobs beyond it wait their turn under fair-share scheduling.
	MaxActiveJobs int
	// MaxQueue bounds the admission wait queue across all tenants
	// (default 64). Submissions beyond it are rejected queue_full.
	MaxQueue int
	// MaxCellsPerJob bounds one job's expanded campaign (default 512).
	MaxCellsPerJob int
	// RatePerSec and Burst shape the submission token bucket (defaults
	// 50/s, burst 100).
	RatePerSec float64
	Burst      int
	// ShedStart is the queue-load fraction where priority shedding
	// begins (default 0.5): above it, the minimum admitted priority
	// climbs linearly with load.
	ShedStart float64
	// DefaultQuota applies to tenants absent from Tenants; its own zero
	// fields default to 8 in-flight cells, 16 queued jobs, unlimited
	// ticks.
	DefaultQuota Quota
	// Tenants overrides quotas per tenant name.
	Tenants map[string]Quota
	// Instr and Warmup are the per-cell defaults for specs that omit
	// them (defaults 20000/2000 — small cells; production sweeps set
	// their own).
	Instr  uint64
	Warmup uint64
	// CellTimeout bounds one cell attempt (0 = none); Retries is the
	// per-cell transient-failure retry budget (default 1).
	CellTimeout time.Duration
	Retries     int
	// DrainTimeout bounds graceful drain: running jobs get this long to
	// finish before their contexts are cancelled and they checkpoint
	// (default 10s).
	DrainTimeout time.Duration
	// CacheSize bounds the deterministic result cache (entries, default
	// 4096).
	CacheSize int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() error {
	if c.DataDir == "" {
		return errors.New("serve: Config.DataDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxCellsPerJob <= 0 {
		c.MaxCellsPerJob = 512
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.ShedStart <= 0 || c.ShedStart > 1 {
		c.ShedStart = 0.5
	}
	if c.DefaultQuota.MaxInFlightCells <= 0 {
		c.DefaultQuota.MaxInFlightCells = 8
	}
	if c.DefaultQuota.MaxQueuedJobs <= 0 {
		c.DefaultQuota.MaxQueuedJobs = 16
	}
	if c.Instr == 0 {
		c.Instr = 20_000
	}
	if c.Warmup == 0 {
		c.Warmup = 2_000
	}
	if c.Retries <= 0 {
		c.Retries = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	return nil
}

// metrics are the daemon's serve.* counters, mirrored into the obs
// registry via CounterFunc readers over atomics (the registry itself is
// single-writer by design; atomics make the hot paths safe).
type metrics struct {
	admitted      atomic.Uint64
	rejRate       atomic.Uint64
	rejQueueFull  atomic.Uint64
	rejShed       atomic.Uint64
	rejQuotaJobs  atomic.Uint64
	rejQuotaTicks atomic.Uint64
	rejDraining   atomic.Uint64
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCancelled atomic.Uint64
	jobsReaped    atomic.Uint64
	cellsExecuted atomic.Uint64
	cellsCached   atomic.Uint64
	cellsResumed  atomic.Uint64
	cacheMisses   atomic.Uint64
}

// Server is the simulation-as-a-service daemon. Construct with New,
// serve with Run.
type Server struct {
	cfg     Config
	sysHash string
	mux     *http.ServeMux
	reg     *obs.Registry
	cache   *resultCache
	m       metrics

	mu          sync.Mutex
	journal     *journal
	bucket      *tokenBucket
	jobs        map[string]*job
	queue       map[string][]*job // per-tenant FIFO of queued jobs
	queuedTotal int
	rrIdx       int // fair-share round-robin cursor over tenant names
	tenants     map[string]*tenant
	activeJobs  int
	draining    bool
	seq         uint64

	globalSlots chan struct{}
	inflight    atomic.Int64

	wake    chan struct{} // dispatcher kick (buffered 1)
	jobDone chan struct{} // drain-progress kick (buffered 1)

	// now and reapEvery are injected for deterministic tests.
	now       func() time.Time
	reapEvery time.Duration
	// runCell, when non-nil, replaces real cell execution (tests).
	runCell func(ctx context.Context, c exp.Cell, o *exp.Options) (camps.Results, error)
}

// New opens (or creates) the data directory, replays the job journal —
// repairing a torn tail and re-queueing every job that was queued or
// running when the previous process died — and builds the HTTP surface.
// It starts no goroutines; call Run to serve.
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	sysHash, err := hashSystem(cfg.System)
	if err != nil {
		return nil, fmt.Errorf("serve: hashing system config: %w", err)
	}
	jn, err := openJournal(filepath.Join(cfg.DataDir, "jobs.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		sysHash:     sysHash,
		reg:         obs.NewRegistry(),
		cache:       newResultCache(cfg.CacheSize),
		journal:     jn,
		jobs:        make(map[string]*job),
		queue:       make(map[string][]*job),
		tenants:     make(map[string]*tenant),
		globalSlots: make(chan struct{}, cfg.Workers),
		wake:        make(chan struct{}, 1),
		jobDone:     make(chan struct{}, 1),
		now:         time.Now,
		reapEvery:   250 * time.Millisecond,
	}
	s.bucket = newTokenBucket(cfg.RatePerSec, cfg.Burst, s.now())
	if err := s.recover(); err != nil {
		jn.close()
		return nil, err
	}
	s.registerMetrics()
	s.routes()
	return s, nil
}

// recover replays the journal into runtime state: terminal jobs are
// retained for status/results serving and their tick usage restored to
// tenant budgets; queued and running jobs are re-queued (their per-job
// checkpoint stores make the re-run exact and cheap — completed cells
// resume, only interrupted ones simulate again).
func (s *Server) recover() error {
	now := s.now()
	requeued := 0
	for _, rec := range s.journal.records() {
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		tn := s.tenantLocked(rec.Tenant)
		j := &job{
			id: rec.ID, seq: rec.Seq, tenant: rec.Tenant,
			state: rec.State, reason: rec.Reason, cells: rec.Cells,
			lastBeat: now,
		}
		if rec.Spec != nil {
			j.spec = *rec.Spec
		}
		if terminalState(rec.State) {
			j.cellsDone, j.cached, j.ticks = rec.CellsDone, rec.Cached, rec.Ticks
			tn.ticks += rec.Ticks
			s.jobs[j.id] = j
			continue
		}
		if rec.Spec == nil {
			// A journal from a newer schema or a hand-edited file; the job
			// cannot be re-run without its spec.
			j.state, j.reason = StateFailed, "journal record has no spec"
			s.jobs[j.id] = j
			continue
		}
		// Re-queue. Completed-cell ticks are re-charged from the job's
		// checkpoint store so tenant budgets survive the restart; the
		// resumed cells themselves are not re-charged when they replay
		// (Progress skips Resumed cells).
		if st, err := exp.OpenStore(s.cellStorePath(j.id)); err == nil {
			for _, rec := range st.Done() {
				j.ticks += int64(rec.Results.ElapsedSim)
			}
			st.Close()
		}
		tn.ticks += j.ticks
		j.state = StateQueued
		j.stream = obs.NewStreamServer()
		if j.spec.DeadlineMS > 0 {
			j.deadline = now.Add(time.Duration(j.spec.DeadlineMS) * time.Millisecond)
		}
		s.jobs[j.id] = j
		s.queue[j.tenant] = append(s.queue[j.tenant], j)
		tn.queued++
		s.queuedTotal++
		requeued++
	}
	if requeued > 0 {
		s.logf("recovered %d interrupted job(s) from %s", requeued, s.cfg.DataDir)
	}
	if s.journal.needsCompaction() {
		if err := s.journal.compact(); err != nil {
			return fmt.Errorf("serve: compacting journal: %w", err)
		}
	}
	return nil
}

// tenantLocked returns (creating if needed) the tenant record; the
// server mutex must be held (or the server not yet started).
func (s *Server) tenantLocked(name string) *tenant {
	tn, ok := s.tenants[name]
	if !ok {
		q := s.cfg.Tenants[name].withDefaults(s.cfg.DefaultQuota)
		tn = &tenant{quota: q}
		s.tenants[name] = tn
	}
	return tn
}

func (s *Server) cellStorePath(id string) string {
	return filepath.Join(s.cfg.DataDir, "cells", id+".jsonl")
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// registerMetrics exposes the serve.* namespace through the obs
// registry. All registrations happen here, before any goroutine exists,
// so later Snapshot calls race with nothing.
func (s *Server) registerMetrics() {
	s.reg.CounterFunc("serve.admitted", s.m.admitted.Load)
	s.reg.CounterFunc("serve.rejected_rate", s.m.rejRate.Load)
	s.reg.CounterFunc("serve.rejected_queue_full", s.m.rejQueueFull.Load)
	s.reg.CounterFunc("serve.rejected_shed", s.m.rejShed.Load)
	s.reg.CounterFunc("serve.rejected_quota_jobs", s.m.rejQuotaJobs.Load)
	s.reg.CounterFunc("serve.rejected_quota_ticks", s.m.rejQuotaTicks.Load)
	s.reg.CounterFunc("serve.rejected_draining", s.m.rejDraining.Load)
	s.reg.CounterFunc("serve.jobs_done", s.m.jobsDone.Load)
	s.reg.CounterFunc("serve.jobs_failed", s.m.jobsFailed.Load)
	s.reg.CounterFunc("serve.jobs_cancelled", s.m.jobsCancelled.Load)
	s.reg.CounterFunc("serve.jobs_reaped", s.m.jobsReaped.Load)
	s.reg.CounterFunc("serve.cells_executed", s.m.cellsExecuted.Load)
	s.reg.CounterFunc("serve.cells_cached", s.m.cellsCached.Load)
	s.reg.CounterFunc("serve.cells_resumed", s.m.cellsResumed.Load)
	s.reg.CounterFunc("serve.cache_misses", s.m.cacheMisses.Load)
	s.reg.CounterFunc("serve.cache_evicted", s.cache.evictions)
	s.reg.GaugeFunc("serve.queue_depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queuedTotal)
	})
	s.reg.GaugeFunc("serve.active_jobs", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.activeJobs)
	})
	s.reg.GaugeFunc("serve.inflight_cells", func() float64 {
		return float64(s.inflight.Load())
	})
	s.reg.GaugeFunc("serve.cache_entries", func() float64 {
		return float64(s.cache.len())
	})
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// reject writes one typed admission refusal: 429 (or 503 while
// draining) with a Retry-After header and a structured body naming the
// reason, and bumps the matching counter.
func (s *Server) reject(w http.ResponseWriter, rej rejection, msg string) {
	code := http.StatusTooManyRequests
	switch rej.Reason {
	case ReasonRate:
		s.m.rejRate.Add(1)
	case ReasonQueueFull:
		s.m.rejQueueFull.Add(1)
	case ReasonShed:
		s.m.rejShed.Add(1)
	case ReasonQuotaJobs:
		s.m.rejQuotaJobs.Add(1)
	case ReasonQuotaTicks:
		s.m.rejQuotaTicks.Add(1)
	case ReasonDraining:
		s.m.rejDraining.Add(1)
		code = http.StatusServiceUnavailable
	}
	if rej.RetryAfter > 0 {
		secs := int64(math.Ceil(rej.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, code, errorBody{
		Error:        msg,
		Reason:       rej.Reason,
		RetryAfterMS: rej.RetryAfter.Milliseconds(),
	})
}

// admitLocked runs the admission pipeline in order — draining, token
// bucket, bounded queue, priority shedding, tenant quotas — returning
// the first refusal, or nil to admit. Shedding happens here and only
// here: once admitted, a job is never dropped by the daemon.
func (s *Server) admitLocked(spec *JobSpec, now time.Time) *rejection {
	if s.draining {
		return &rejection{Reason: ReasonDraining, RetryAfter: s.cfg.DrainTimeout}
	}
	if ok, retry := s.bucket.take(now); !ok {
		return &rejection{Reason: ReasonRate, RetryAfter: retry}
	}
	if s.queuedTotal >= s.cfg.MaxQueue {
		return &rejection{Reason: ReasonQueueFull, RetryAfter: time.Second}
	}
	load := float64(s.queuedTotal) / float64(s.cfg.MaxQueue)
	if floor := shedFloor(load, s.cfg.ShedStart); spec.Priority < floor {
		return &rejection{Reason: ReasonShed, RetryAfter: time.Second}
	}
	tn := s.tenantLocked(spec.Tenant)
	if tn.queued >= tn.quota.MaxQueuedJobs {
		return &rejection{Reason: ReasonQuotaJobs, RetryAfter: 2 * time.Second}
	}
	if tn.overTickBudget() {
		return &rejection{Reason: ReasonQuotaTicks}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	if hdr := r.Header.Get("X-Tenant"); hdr != "" {
		spec.Tenant = hdr
	}
	spec.normalize(s.cfg.Instr, s.cfg.Warmup)
	if err := spec.validate(s.cfg.MaxCellsPerJob); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}

	s.mu.Lock()
	now := s.now()
	if rej := s.admitLocked(&spec, now); rej != nil {
		s.mu.Unlock()
		s.reject(w, *rej, "job not admitted: "+rej.Reason)
		return
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%06d", s.seq),
		seq:      s.seq,
		tenant:   spec.Tenant,
		spec:     spec,
		state:    StateQueued,
		cells:    spec.CellCount(),
		lastBeat: now,
		stream:   obs.NewStreamServer(),
	}
	if spec.DeadlineMS > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	// The queued record is the job's durable birth certificate: it is
	// fsync'd before the client hears 202, so an accepted job survives
	// any crash after this point.
	rec := jobRecord{
		Seq: j.seq, ID: j.id, Tenant: j.tenant, State: StateQueued,
		Cells: j.cells, Spec: &j.spec,
	}
	if err := s.journal.append(rec); err != nil {
		s.seq--
		s.mu.Unlock()
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "journal: " + err.Error()})
		return
	}
	tn := s.tenantLocked(j.tenant)
	s.jobs[j.id] = j
	s.queue[j.tenant] = append(s.queue[j.tenant], j)
	tn.queued++
	s.queuedTotal++
	s.m.admitted.Add(1)
	st := j.statusLocked()
	s.mu.Unlock()

	s.publishState(j, st)
	s.kick()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, out)
}

// cellExport is one cell of a results document: identity plus the full
// simulation results, with execution bookkeeping (attempts, wall time)
// deliberately excluded so the document is a deterministic function of
// the job spec — byte-identical whether cells ran fresh, from cache, or
// across a crash/restart.
type cellExport struct {
	Key     string        `json:"key"`
	Results camps.Results `json:"results"`
}

// exportDoc is the JSON shape of GET /v1/jobs/{id}/results.
type exportDoc struct {
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	State  string       `json:"state"`
	Reason string       `json:"reason,omitempty"`
	Cells  []cellExport `json:"cells"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	state, reason := j.state, j.reason
	s.mu.Unlock()
	if !terminalState(state) {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished", Reason: state})
		return
	}
	// Terminal jobs have no writer, so reading the store is safe; its
	// map is re-keyed and sorted so the export order is deterministic.
	st, err := exp.OpenStore(s.cellStorePath(j.id))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "cell store: " + err.Error()})
		return
	}
	done := st.Done()
	st.Close()
	doc := exportDoc{ID: j.id, Tenant: j.tenant, State: state, Reason: reason, Cells: make([]cellExport, 0, len(done))}
	for _, key := range sortedKeys(done) {
		doc.Cells = append(doc.Cells, cellExport{Key: key, Results: done[key].Results})
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	stream := j.stream
	st := j.statusLocked()
	s.mu.Unlock()
	if stream != nil {
		stream.Handler().ServeHTTP(w, r)
		return
	}
	// A terminal job recovered from the journal has no live stream; its
	// history is gone with the old process, but the contract — every
	// subscriber sees a terminal event — still holds.
	payload, _ := json.Marshal(st)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: terminal\ndata: %s\n\n", payload)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		frame := s.finishQueuedLocked(j, StateCancelled, "cancelled by client")
		st := j.statusLocked()
		s.mu.Unlock()
		j.stream.Close(frame)
		writeJSON(w, http.StatusOK, st)
	case StateRunning:
		j.cancelReason = "cancelled by client"
		cancel := j.cancel
		st := j.statusLocked()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		writeJSON(w, http.StatusAccepted, st)
	default: // already terminal: cancellation is idempotent
		st := j.statusLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	j.lastBeat = s.now()
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot("serve", 0))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := map[string]any{
		"status":   "ok",
		"draining": s.draining,
		"queued":   s.queuedTotal,
		"active":   s.activeJobs,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// publishState emits one SSE "state" event for the job.
func (s *Server) publishState(j *job, st status) {
	if j.stream == nil {
		return
	}
	payload, _ := json.Marshal(st)
	j.stream.PublishFrame("state", payload)
}
