package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"time"

	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/runtime"
)

// setupTimes is one set-up's phases in wall seconds: compile the app,
// explore Setting-I's design space (on the pinned worker pool), and
// build one repetition's node(s), planner(s), fault injector and
// recorders. Ref is the reference kernel's time, taken in the same
// fresh process just before the set-up.
type setupTimes struct {
	Compile float64 `json:"compile_s"`
	Explore float64 `json:"explore_s"`
	Build   float64 `json:"build_s"`
	Ref     float64 `json:"ref_s"`
}

func (s setupTimes) total() float64 { return s.Compile + s.Explore + s.Build }

// setUp compiles the app and explores the design space, timing both.
func setUp() (runtime.Bench, setupTimes, error) {
	var st setupTimes
	var b runtime.Bench
	var fw *core.Framework
	err := timed(&st.Compile, func() (err error) {
		fw, err = core.App(appName)
		return err
	})
	if err == nil {
		err = timed(&st.Explore, func() (err error) {
			b, err = fw.Bench(cluster.HeterPoly, cluster.SettingI)
			return err
		})
	}
	return b, st, err
}

// timed runs f and stores the wall seconds it took in *d.
func timed(d *float64, f func() error) error {
	t0 := time.Now()
	err := f()
	*d = time.Since(t0).Seconds()
	return err
}

// setupChild is the child-process side of a cold set-up: it times the
// reference kernel and every phase in this fresh process and prints
// them as one JSON line. The kernel runs here, not in the benchmark's
// own process, so the program's heap there cannot slow it.
func setupChild(w workload) error {
	ref := refKernel()
	b, st, err := setUp()
	st.Ref = ref
	if err != nil {
		return err
	}
	var tgt target
	if err := timed(&st.Build, func() (err error) {
		tgt, err = w.build(b, nil)
		return err
	}); err != nil {
		return err
	}
	goruntime.KeepAlive(tgt)
	return json.NewEncoder(os.Stdout).Encode(st)
}

// coldSetup times one cold set-up in a fresh child process of this
// binary. core.App memoizes compiles process-wide, so only a new
// process measures what a deployment pays at start-up.
func coldSetup(w workload, tr *tracer, parent int) (setupTimes, error) {
	var st setupTimes
	exe, err := os.Executable()
	if err != nil {
		return st, err
	}
	id := tr.begin("setup.cold", parent)
	cmd := exec.Command(exe, "--setup-child", "--workload", w.name)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return st, fmt.Errorf("set-up child: %w", err)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("set-up child output %q: %w", b, err)
	}
	tr.end(id, "compile_s", st.Compile, "explore_s", st.Explore, "build_s", st.Build)
	return st, nil
}
