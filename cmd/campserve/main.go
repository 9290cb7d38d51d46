// Command campserve runs the CAMPS simulation-as-a-service daemon: an
// HTTP front end (internal/serve) over the campaign orchestrator
// (internal/exp), with admission control, per-tenant quotas, load
// shedding, a deterministic result cache, and crash-safe job recovery.
//
// The daemon journals every job to -data; killing it (even with SIGKILL)
// and restarting on the same directory resumes interrupted campaigns
// from their cell checkpoints. SIGTERM/SIGINT trigger a graceful drain:
// admission closes, running jobs get -drain-timeout to finish, and
// whatever is still running is checkpointed for the next start.
//
// Usage:
//
//	campserve -addr :8080 -data /var/lib/campserve
//	campserve -addr 127.0.0.1:9000 -workers 8 -quota-ticks 1e12
//	campserve -smoke        # self-test against an ephemeral instance
//
// See docs/SERVING.md for the HTTP API.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"camps/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campserve: ")

	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		data         = flag.String("data", "campserve-data", "data directory (journal + cell checkpoints)")
		workers      = flag.Int("workers", 0, "concurrent cell simulations daemon-wide (0 = NumCPU)")
		maxActive    = flag.Int("max-active", 0, "concurrently running jobs (0 = default 8)")
		maxQueue     = flag.Int("max-queue", 0, "bounded wait queue across tenants (0 = default 64)")
		maxCells     = flag.Int("max-cells", 0, "largest campaign one job may expand to (0 = default 512)")
		rate         = flag.Float64("rate", 0, "admission token-bucket rate, jobs/sec (0 = default 50)")
		burst        = flag.Int("burst", 0, "admission token-bucket burst (0 = default 100)")
		shedStart    = flag.Float64("shed-start", 0, "queue-load fraction where priority shedding begins (0 = default 0.5)")
		quotaCells   = flag.Int("quota-inflight", 0, "default per-tenant in-flight cell cap (0 = default 8)")
		quotaJobs    = flag.Int("quota-jobs", 0, "default per-tenant queued-job cap (0 = default 16)")
		quotaTicks   = flag.Float64("quota-ticks", 0, "default per-tenant simulated-tick budget in ps (0 = unlimited)")
		instr        = flag.Uint64("instr", 200_000, "default measured instructions per cell")
		warmup       = flag.Uint64("warmup", 0, "default warmup references per cell (0 = 2000)")
		cellTimeout  = flag.Duration("cell-timeout", 0, "wall-clock budget per cell attempt (0 = none)")
		retries      = flag.Int("retries", 1, "extra attempts for transiently failing cells (values below 1 become 1)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM")
		cacheSize    = flag.Int("cache", 0, "result cache entries (0 = default 4096)")
		smoke        = flag.Bool("smoke", false, "run the self-test against an ephemeral instance and exit")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		fmt.Println("campserve smoke: OK")
		return
	}

	cfg := serve.Config{
		DataDir:        *data,
		Workers:        *workers,
		MaxActiveJobs:  *maxActive,
		MaxQueue:       *maxQueue,
		MaxCellsPerJob: *maxCells,
		RatePerSec:     *rate,
		Burst:          *burst,
		ShedStart:      *shedStart,
		DefaultQuota: serve.Quota{
			MaxInFlightCells: *quotaCells,
			MaxQueuedJobs:    *quotaJobs,
			TickBudget:       int64(*quotaTicks),
		},
		Instr:        *instr,
		Warmup:       *warmup,
		CellTimeout:  *cellTimeout,
		Retries:      *retries,
		DrainTimeout: *drainTimeout,
		CacheSize:    *cacheSize,
		Logf:         log.Printf,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s (data %s)", ln.Addr(), *data)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained; bye")
}

// runSmoke boots an ephemeral daemon on a loopback port and a temp data
// dir, drives a tiny real campaign through the full HTTP surface, and
// verifies the serving contract end to end: admission, completion, SSE
// terminal events, and the determinism claim behind the result cache —
// a resubmitted job must be served from cache with a byte-identical
// results document.
func runSmoke() error {
	dir, err := os.MkdirTemp("", "campserve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := serve.New(serve.Config{
		DataDir: dir,
		Instr:   4_000,
		Warmup:  500,
		Logf:    log.Printf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	spec := `{"tenant":"smoke","mixes":["HM2"],"schemes":["CAMPS-MOD"],"seeds":[1]}`
	first, err := smokeJob(base, spec)
	if err != nil {
		stop()
		return err
	}
	second, err := smokeJob(base, spec) // identical spec: must hit the cache
	if err != nil {
		stop()
		return err
	}
	if second.status.Cached != second.status.Cells {
		stop()
		return fmt.Errorf("resubmitted job ran %d cells fresh; want all %d from cache",
			second.status.Cells-second.status.Cached, second.status.Cells)
	}
	if !bytes.Equal(first.cells, second.cells) {
		stop()
		return fmt.Errorf("cache hit produced different results document:\n%s\nvs\n%s", first.cells, second.cells)
	}

	// The SSE stream of a finished job must still deliver a terminal
	// event (backlog replay).
	events, err := httpGet(base + "/v1/jobs/" + first.status.ID + "/events")
	if err != nil {
		stop()
		return err
	}
	if !bytes.Contains(events, []byte("event: terminal")) {
		stop()
		return fmt.Errorf("events stream missing terminal event:\n%s", events)
	}

	stop() // SIGTERM equivalent: graceful drain
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

type smokeResult struct {
	status struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Reason string `json:"reason"`
		Cells  int    `json:"cells"`
		Cached int    `json:"cached"`
	}
	cells json.RawMessage // the "cells" array of the results document
}

// smokeJob submits spec, polls it to completion, and fetches its results.
func smokeJob(base, spec string) (*smokeResult, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var r smokeResult
	if err := json.Unmarshal(body, &r.status); err != nil {
		return nil, fmt.Errorf("submit response: %w (%s)", err, body)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		b, err := httpGet(base + "/v1/jobs/" + r.status.ID)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &r.status); err != nil {
			return nil, err
		}
		if r.status.State == "done" {
			break
		}
		if r.status.State == "failed" || r.status.State == "cancelled" {
			return nil, fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Reason)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 2m", r.status.ID, r.status.State)
		}
		time.Sleep(100 * time.Millisecond)
	}

	b, err := httpGet(base + "/v1/jobs/" + r.status.ID + "/results")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	r.cells = doc.Cells
	return &r, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}
