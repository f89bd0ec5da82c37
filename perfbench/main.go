// Command perfbench is the repository's benchmark. It serves one named
// workload through the program's public API, checks the simulated
// outputs, and prints every metric by name and unit; the last line of
// its output is one JSON object. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload node-peak --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it adds
// a traced run, replay drivers and a CPU profile and prints the
// per-layer metrics. NOTES.md says why each workload exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"poly/internal/runtime"
	"poly/internal/telemetry"
)

const (
	// setupRuns is how many cold set-ups a run times; setup_s is their
	// median. They are spread evenly over the untraced repetitions: one
	// set-up takes about 20 ms of wall time, so back to back they would
	// sample the machine during one second of the run, while the
	// repetitions sample all of it.
	setupRuns = 21
	// minReps is the fewest untraced repetitions a run makes, however
	// short --seconds is: two to compare fingerprints, three for a
	// median.
	minReps = 3
	// maxWorkers pins the internal/parallel pool to the host's two cores.
	maxWorkers = 2
	// outDir holds everything a run writes, relative to the checkout.
	outDir = ".bench_build"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: node-steady, node-peak or fleet-faults")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the untraced repetitions run")
	traceFlag := fs.Int("trace", 0, "1 adds the traced run and prints per-layer metrics")
	child := fs.Bool("setup-child", false, "time one cold set-up and print it (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// Children inherit the pin through the environment.
	os.Setenv("POLY_WORKERS", strconv.Itoa(min(goruntime.NumCPU(), maxWorkers)))
	if *child {
		if err := setupChild(w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		return 0
	}
	r := &runner{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	rep, err := r.measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", rep.err)
		return 1
	}
	return 0
}

// runner is one benchmark run of one workload and seed.
type runner struct {
	w       workload
	seed    int64
	seconds time.Duration
	traced  bool

	b      runtime.Bench
	inject []func(runtime.ArrivalTarget) int // one per episode
	tr     *tracer
}

// repStats is one repetition: its simulated outcome and host costs.
type repStats struct {
	// out is kept for a run's first repetition only; later ones must
	// match its fingerprint, and retaining their outcomes would grow
	// the heap the later repetitions are measured in.
	out       outcome
	completed int
	fp        uint64
	injectS   float64 // wall
	drainS    float64 // wall
	// cpuS is the process's CPU time over inject and drain, every
	// thread and garbage collection included. Against the wall time it
	// shows how much of the run was parallel.
	cpuS       float64
	allocBytes uint64
	gcCycles   uint32
	// liveHeapB is the live heap after each episode's drain, with that
	// episode's target still reachable, averaged over the episodes.
	liveHeapB float64
}

// rep runs one repetition: for each episode, build a target (untimed),
// call attach if given, then inject and drain it (timed), then measure
// the live heap with that target still live. The last target is
// returned.
//
// The live heap is averaged over the episodes, not read once after the
// last one: the plan cache's maps grow in steps, so one episode's heap
// jumps by about 4 % with the number of distinct plans it happened to
// cache (on node-peak), and a single reading made the metric as noisy
// as that step.
func (r *runner) rep(tel telemetry.Sink, attach func(target), parent int) (repStats, target, error) {
	var rs repStats
	var tgt target
	var eps []outcome
	goruntime.GC()
	for _, inject := range r.inject {
		id := r.tr.begin("setup.build", parent)
		var err error
		tgt, err = r.w.build(r.b, tel)
		r.tr.end(id)
		if err != nil {
			return rs, nil, err
		}
		if attach != nil {
			attach(tgt)
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		c0, err := cpuTime()
		if err != nil {
			return rs, nil, err
		}
		id = r.tr.begin("inject", parent)
		t0 := time.Now()
		offered := inject(tgt)
		t1 := time.Now()
		r.tr.end(id, "arrivals", offered)
		id = r.tr.begin("drain", parent)
		out := tgt.collect()
		t2 := time.Now()
		r.tr.end(id, "completed", out.completed())
		c1, err := cpuTime()
		if err != nil {
			return rs, nil, err
		}
		goruntime.ReadMemStats(&m1)
		if offered != out.offered {
			return rs, nil, fmt.Errorf("injected %d arrivals, the target counted %d", offered, out.offered)
		}
		eps = append(eps, out)
		rs.injectS += t1.Sub(t0).Seconds()
		rs.drainS += t2.Sub(t1).Seconds()
		rs.cpuS += c1 - c0
		rs.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		rs.gcCycles += m1.NumGC - m0.NumGC
		goruntime.GC()
		goruntime.ReadMemStats(&m1)
		rs.liveHeapB += float64(m1.HeapAlloc) / float64(len(r.inject))
	}

	rs.out = pool(eps)
	if err := rs.out.check(); err != nil {
		return rs, nil, err
	}
	rs.fp = rs.out.fingerprint()
	rs.completed = rs.out.completed()
	return rs, tgt, nil
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// machineTicks returns the machine's busy and stolen CPU time so far,
// in clock ticks summed over its CPUs, from /proc/stat. Steal is time a
// virtual machine's CPUs were ready to run while the hypervisor ran
// other guests. Where /proc/stat cannot be read both are 0, and so is
// go.steal_frac.
func machineTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	busy, steal, _ = statTicks(string(b))
	return busy, steal
}

// statTicks parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal ticks, in that order.
func statTicks(text string) (busy, steal float64, ok bool) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [9]float64
	for i := 1; i < len(v); i++ {
		x, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = x
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8], true
}

// measure makes the whole run: cold set-ups and untraced repetitions
// for the run's seconds and, when traced, the traced run, replays and
// profile.
func (r *runner) measure() (*report, error) {
	if r.traced {
		r.tr = newTracer()
	}
	root := r.tr.begin("perfbench "+r.w.name, 0)
	rep := &report{w: r.w, seed: r.seed, traced: r.traced, correct: true}

	var st setupTimes
	var err error
	id := r.tr.begin("setup", root)
	r.b, st, err = setUp()
	r.tr.end(id, "compile_s", st.Compile, "explore_s", st.Explore)
	if err != nil {
		return nil, err
	}
	r.inject = r.w.arrivals(r.seed)

	id = r.tr.begin("untraced", root)
	start := time.Now()
	busy0, steal0 := machineTicks()
	// coldSetups runs cold set-ups until rep holds n of them.
	coldSetups := func(n int) error {
		for len(rep.setups) < n {
			st, err := coldSetup(r.w, r.tr, id)
			if err != nil {
				return err
			}
			rep.setups = append(rep.setups, st)
		}
		return nil
	}
	for len(rep.reps) < minReps || time.Since(start) < r.seconds {
		if err := coldSetups(min(setupRuns, 1+int(setupRuns*time.Since(start).Seconds()/r.seconds.Seconds()))); err != nil {
			return nil, err
		}
		rs, _, err := r.rep(nil, nil, id)
		rep.attempted += rs.out.offered
		if err == nil && len(rep.reps) > 0 && rs.fp != rep.reps[0].fp {
			err = fmt.Errorf("repetition %d fingerprint %016x != first %016x for the same seed",
				len(rep.reps), rs.fp, rep.reps[0].fp)
		}
		if err != nil {
			rep.fail(rs.out.offered, err)
			return rep, nil
		}
		if len(rep.reps) > 0 {
			rs.out = outcome{}
		}
		rep.reps = append(rep.reps, rs)
	}
	if err := coldSetups(setupRuns); err != nil {
		return nil, err
	}
	busy1, steal1 := machineTicks()
	rep.stealFrac = ratio(steal1-steal0, busy1-busy0+steal1-steal0)
	r.tr.end(id)
	if r.traced {
		if err := r.tracedRun(rep, root); err != nil || !rep.correct {
			return rep, err
		}
	}
	r.tr.end(root)
	if r.traced {
		path := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", r.w.name, r.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		rep.tracePath = path
	}
	return rep, nil
}

// tracedRun repeats the workload with tracing on under a CPU profile,
// then runs the replay drivers. Its outcomes must match the untraced
// fingerprint bit for bit.
func (r *runner) tracedRun(rep *report, root int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d.cpu.pprof", r.w.name, r.seed))
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer f.Close()
	id := r.tr.begin("traced", root)
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	var shape nodeShape
	deadline := time.Now().Add(max(2*time.Second, r.seconds/4))
	for len(rep.tracedReps) == 0 || time.Now().Before(deadline) {
		var (
			sink *timedSink
			tel  telemetry.Sink
			obs  []*launchObserver
		)
		if !r.w.fleet {
			sink = &timedSink{rec: telemetry.New(), t: &layerTally{}}
			tel = sink
		}
		attach := func(t target) {
			if sink != nil {
				sink.sim = t.nodes()[0].Sim
				sink.offs = newOffsetSampler(t.nodes()[0])
			} else {
				obs = observeLaunches(t.(*fleetTarget))
			}
		}
		rs, tgt, err := r.rep(tel, attach, id)
		rep.attempted += rs.out.offered
		if err == nil && rs.fp != rep.reps[0].fp {
			err = fmt.Errorf("traced fingerprint %016x != untraced %016x", rs.fp, rep.reps[0].fp)
		}
		if err != nil {
			pprof.StopCPUProfile()
			rep.fail(rs.out.offered, err)
			return nil
		}
		if len(rep.tracedReps) == 0 {
			if sink != nil {
				rep.layers = nodeLayers(sink)
			} else if rep.layers, err = fleetLayers(tgt.(*fleetTarget), obs); err != nil {
				pprof.StopCPUProfile()
				return err
			}
			shape = shapeOf(tgt.nodes()[0])
		}
		rs.out = outcome{}
		rep.tracedReps = append(rep.tracedReps, rs)
	}
	pprof.StopCPUProfile()
	r.tr.end(id)
	if err := f.Close(); err != nil {
		return err
	}
	if rep.shares, err = hostShares(profPath); err != nil {
		return err
	}
	rep.depth = int(rep.layers.pending.Percentile(50))
	rep.replay, err = replay(r.b, r.w, shape, rep.layers.offsets, rep.depth, r.seed, r.tr, root)
	return err
}
