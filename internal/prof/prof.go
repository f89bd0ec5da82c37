// Package prof wires the standard pprof endpoints into the CLIs so perf
// work on the planner and simulator can be profile-driven: CPU and heap
// profiles to files, and an optional live net/http/pprof listener.
package prof

import (
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges a heap profile to be
// written to memPath; either may be empty. It returns a stop function the
// caller must invoke before exiting (defer-friendly), and an error if a
// profile file cannot be created or profiling cannot start.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof: write heap profile:", err)
			}
		}
	}, nil
}

// Handle registers an extra handler on the mux Serve uses (the
// DefaultServeMux) — how cmd/polysim mounts the telemetry /metrics
// endpoints next to /debug/pprof. Safe before or after Serve: the mux
// guards its own table.
func Handle(pattern string, h http.Handler) { http.Handle(pattern, h) }

// Serve starts the net/http/pprof listener on addr (e.g. "localhost:6060")
// in a background goroutine; empty addr is a no-op. Interactive profiling
// of a live serve: `go tool pprof http://localhost:6060/debug/pprof/profile`.
func Serve(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "prof: pprof listener:", err)
		}
	}()
}
