// Package cliutil holds the flag behaviours shared by the simulator and
// trace CLIs (campsim, campbench, campsweep, tracegen, traceinfo):
// -version build-info printing and the -pprof debug server, so those
// five stay consistent without each reimplementing them. campserve and
// campslint use neither.
package cliutil

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"runtime"
	"runtime/debug"
	"sync"
)

// PrintVersion writes tool's build information (module version, VCS
// revision, Go toolchain) as reported by the Go runtime.
func PrintVersion(w io.Writer, tool string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		fmt.Fprintf(w, "%s: build info unavailable\n", tool)
		return
	}
	version := bi.Main.Version
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	fmt.Fprintf(w, "%s %s (%s, %s)\n", tool, version, bi.GoVersion, bi.Main.Path)
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
			fmt.Fprintf(w, "  %s=%s\n", s.Key, s.Value)
		}
	}
}

var registerRuntimeOnce sync.Once

// StartPprof serves net/http/pprof plus a /debug/runtime JSON endpoint
// (heap, GC, goroutine counts) on addr in a background goroutine. The
// bind happens synchronously: a bound port (or any other listen failure)
// is logged and the run continues without profiling — the debug server
// must never abort a simulation. It returns true when the server is up.
// Profiling a simulation is then e.g.:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
func StartPprof(addr string, logf func(format string, args ...any)) bool {
	// DefaultServeMux panics on duplicate registration, so guard against a
	// second StartPprof in one process (tests, embedded uses).
	registerRuntimeOnce.Do(func() {
		http.HandleFunc("/debug/runtime", func(w http.ResponseWriter, _ *http.Request) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"goroutines":     runtime.NumGoroutine(),
				"heap_alloc":     ms.HeapAlloc,
				"heap_objects":   ms.HeapObjects,
				"total_alloc":    ms.TotalAlloc,
				"num_gc":         ms.NumGC,
				"pause_total_ns": ms.PauseTotalNs,
			})
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if logf != nil {
			logf("pprof disabled (%v); continuing without profiling", err)
		}
		return false
	}
	go func() {
		if serr := http.Serve(ln, nil); serr != nil && logf != nil {
			logf("pprof server stopped: %v", serr)
		}
	}()
	if logf != nil {
		logf("serving pprof on http://%s/debug/pprof/ (runtime metrics at /debug/runtime)", ln.Addr())
	}
	return true
}
