package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"poly/internal/runtime"
	"poly/internal/sim"
)

// report is one run's measurements and verdict.
type report struct {
	w       workload
	seed    int64
	traced  bool
	correct bool
	err     error
	// attempted counts simulated requests offered across every
	// repetition; failed those in a repetition that failed a check.
	attempted, failed int

	// stealFrac is the share of the machine's busy CPU time that the
	// hypervisor stole over the untraced repetitions and set-ups. It is
	// reported, not used to correct host times.
	stealFrac  float64
	setups     []setupTimes
	reps       []repStats // untraced
	tracedReps []repStats
	layers     layerReadings
	shares     map[string]float64
	depth      int
	replay     replayTimes
	tracePath  string
}

func (rep *report) fail(offered int, err error) {
	rep.correct = false
	rep.err = err
	rep.failed += offered
}

type metric struct {
	name  string
	value float64
	unit  string
}

// medianOf is the median of f over every repetition.
func medianOf(reps []repStats, f func(*repStats) float64) float64 {
	var s sim.Sample
	for i := range reps {
		s.Add(f(&reps[i]))
	}
	return s.Percentile(50)
}

func setupMedian(setups []setupTimes, f func(setupTimes) float64) float64 {
	var s sim.Sample
	for _, st := range setups {
		s.Add(f(st))
	}
	return s.Percentile(50)
}

func wallS(r *repStats) float64 { return r.injectS + r.drainS }

// refS is the reference kernel's median time over the run's cold
// set-ups, which are spread over the untraced repetitions.
func (rep *report) refS() float64 {
	return setupMedian(rep.setups, func(s setupTimes) float64 { return s.Ref })
}

// hostS scales wall seconds to the host speed at which the reference
// kernel takes refNominalS: the wall time the work would have taken
// there.
func (rep *report) hostS(wall float64) float64 { return wall * refNominalS / rep.refS() }

// reqPerHostS is completed requests per host second over all untraced
// repetitions.
func (rep *report) reqPerHostS() float64 {
	var completed, wall float64
	for i := range rep.reps {
		completed += float64(rep.reps[i].completed)
		wall += wallS(&rep.reps[i])
	}
	return ratio(completed, rep.hostS(wall))
}

// heapRep is the repetition whose live heap is reported. Later ones
// also hold the statistics of every repetition before them, so a median
// over repetitions would grow with how many a fast host fits into the
// run; from the second on, each holds the first one's outcome. Within
// a seed the repetitions' live heaps agree to a few hundred bytes.
const heapRep = 1

// endToEnd is what a user of the system sees. Host numbers other than
// throughput are medians over the untraced repetitions; simulated
// numbers come from the first one, which every other repetition
// matches bit for bit.
func (rep *report) endToEnd() []metric {
	o := &rep.reps[0].out
	return []metric{
		{"sim_req_per_host_s", rep.reqPerHostS(), "req/s"},
		{"setup_s", rep.hostS(setupMedian(rep.setups, setupTimes.total)), "s"},
		{"alloc_kb_per_req", medianOf(rep.reps, func(r *repStats) float64 {
			return float64(r.allocBytes) / 1024 / float64(r.completed)
		}), "KiB"},
		{"live_heap_mb", rep.reps[heapRep].liveHeapB / (1 << 20), "MiB"},
		{"sim_p50_ms", o.p50, "sim_ms"},
		{"sim_p99_ms", o.p99, "sim_ms"},
		{"sim_qos_met_frac", 1 - o.qosViolFrac(), "ratio"},
		{"sim_power_w", o.powerW, "W"},
		{"sim_served_frac", 1 - o.failedFrac(), "ratio"},
	}
}

// perLayer is the traced run's view of each layer.
func (rep *report) perLayer() []metric {
	o := &rep.reps[0].out
	lr := &rep.layers
	sum := func(f func(r *runtime.Result) int) float64 { return float64(o.sum(f)) }
	arrivals := sum(func(r *runtime.Result) int { return r.Arrivals })
	completed := float64(o.completed())
	hits := sum(func(r *runtime.Result) int { return r.CacheHits })
	misses := sum(func(r *runtime.Result) int { return r.CacheMisses })
	drainS := func(r *repStats) float64 { return r.drainS }
	telemetryNS := lr.sinkNS
	if telemetryNS < 0 {
		telemetryNS = rep.shares["telemetry"] * medianOf(rep.tracedReps, func(r *repStats) float64 { return r.cpuS }) * 1e9
	}
	maxShare := 1.0
	if len(o.placements) > 0 {
		top, total := 0, 0
		for _, p := range o.placements {
			top, total = max(top, p), total+p
		}
		maxShare = ratio(float64(top), float64(total)/float64(len(o.placements)))
	}
	return []metric{
		{"sim.events_per_req", ratio(float64(o.fired), completed), "events/req"},
		{"sim.ns_per_event", rep.replay.event, "ns"},
		{"sim.host_share", rep.shares["sim"], "ratio"},

		{"sched.plans_per_req", ratio(hits+misses, arrivals), "plans/req"},
		{"sched.hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"sched.cold_plans", misses, "count"},
		{"sched.swaps_per_cold_plan", lr.swapsPerCold, "swaps/plan"},
		{"sched.hit_ns", rep.replay.hit, "ns"},
		{"sched.miss_ns", rep.replay.miss, "ns"},
		{"sched.cold_ns", rep.replay.cold, "ns"},
		{"sched.host_share", rep.shares["sched"], "ratio"},

		{"device.tasks_per_req", ratio(sum(func(r *runtime.Result) int { return r.GPUTasks + r.FPGATasks }), completed), "tasks/req"},
		{"device.launch_amort", ratio(sum(func(r *runtime.Result) int { return r.GPUTasks }),
			sum(func(r *runtime.Result) int { return r.GPULaunches })), "tasks/launch"},
		{"device.reconfigs", sum(func(r *runtime.Result) int { return r.Reconfigs }), "count"},
		{"device.queue_ms.p50", lr.queueP50, "sim_ms"},
		{"device.queue_ms.p99", lr.queueP99, "sim_ms"},
		{"device.exec_ms.mean", lr.execMean, "sim_ms"},
		{"device.submit_ns", rep.replay.submit, "ns"},
		{"device.host_share", rep.shares["device"], "ratio"},

		{"runtime.hold_ms.mean", lr.holdMean, "sim_ms"},
		{"runtime.batched_frac", ratio(sum(func(r *runtime.Result) int { return r.BatchedRequests }), arrivals), "ratio"},
		{"runtime.transfer_ms.mean", lr.transferMean, "sim_ms"},
		{"runtime.retries_per_kreq", 1000 * ratio(sum(func(r *runtime.Result) int { return r.Retries }), arrivals), "1/kreq"},
		{"runtime.task_failures", sum(func(r *runtime.Result) int { return r.TaskFailures }), "count"},
		{"runtime.board_down_events", sum(func(r *runtime.Result) int { return r.BoardDownEvents }), "count"},
		{"runtime.shed", sum(func(r *runtime.Result) int { return r.Shed }), "count"},
		{"runtime.host_share", rep.shares["runtime"], "ratio"},

		{"telemetry.spans", float64(lr.spans), "count"},
		{"telemetry.trace_events", float64(lr.traceEvents), "count"},
		{"telemetry.trace_dropped", float64(lr.traceDropped), "count"},
		{"telemetry.ns_per_req", ratio(telemetryNS, completed), "ns/req"},
		{"telemetry.finish_ns", rep.replay.finish, "ns"},
		{"telemetry.host_share", rep.shares["telemetry"], "ratio"},

		{"fleet.max_node_share", maxShare, "ratio"},
		{"fleet.node_down_events", float64(o.nodeDownEvents), "count"},
		{"fleet.inject_s", medianOf(rep.reps, func(r *repStats) float64 { return r.injectS }), "s"},
		{"fleet.drain_s", medianOf(rep.reps, drainS), "s"},
		{"fleet.host_share", rep.shares["fleet"], "ratio"},

		{"setup.compile_s", rep.hostS(setupMedian(rep.setups, func(s setupTimes) float64 { return s.Compile })), "s"},
		{"setup.explore_s", rep.hostS(setupMedian(rep.setups, func(s setupTimes) float64 { return s.Explore })), "s"},
		{"setup.build_s", rep.hostS(setupMedian(rep.setups, func(s setupTimes) float64 { return s.Build })), "s"},

		{"go.gc_cycles_per_kreq", medianOf(rep.reps, func(r *repStats) float64 {
			return 1000 * float64(r.gcCycles) / float64(r.completed)
		}), "1/kreq"},
		{"go.cpu_req_per_s", medianOf(rep.reps, func(r *repStats) float64 { return float64(r.completed) / r.cpuS }), "req/s"},
		{"go.cpu_per_wall", medianOf(rep.reps, func(r *repStats) float64 { return r.cpuS / wallS(r) }), "ratio"},
		{"go.steal_frac", rep.stealFrac, "ratio"},
		{"go.ref_ms", 1000 * rep.refS(), "ms"},
		{"go.host_share", rep.shares["go"], "ratio"},
		{"trace.overhead_frac", ratio(medianOf(rep.tracedReps, drainS), medianOf(rep.reps, drainS)) - 1, "ratio"},
	}
}

// print writes the human-readable report, then the result object as
// the last line.
func (rep *report) print(w io.Writer) error {
	var ms []metric
	if rep.correct {
		ms = rep.endToEnd()
		if rep.traced {
			ms = rep.perLayer()
		}
		rep.describe(w, ms)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(ms))
	for _, m := range ms {
		values[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (rep *report) describe(w io.Writer, ms []metric) {
	o := &rep.reps[0].out
	fmt.Fprintf(w, "perfbench %s seed %d: %d arrivals per repetition, %d untraced repetitions",
		rep.w.name, rep.seed, o.offered, len(rep.reps))
	if rep.traced {
		fmt.Fprintf(w, ", %d traced", len(rep.tracedReps))
	}
	fmt.Fprintf(w, "\nfingerprint %016x (every repetition matched)\n", rep.reps[0].fp)
	m := o.measured()
	fmt.Fprintf(w, "measured requests %d, %d beyond p99; sim_qos_viol_frac %.6g, failed_frac %.6g\n",
		m, tailBeyond(m, 99), o.qosViolFrac(), o.failedFrac())
	if o.fleet {
		parts := make([]string, len(o.placements))
		for i, p := range o.placements {
			parts[i] = fmt.Sprint(p)
		}
		fmt.Fprintf(w, "placements per node %s, %d node-down events\n", strings.Join(parts, " "), o.nodeDownEvents)
	}
	for _, mt := range ms {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", mt.name, mt.value, mt.unit)
	}
	if rep.traced {
		fmt.Fprintf(w, "event replay depth %d; host shares %v; trace %s\n", rep.depth, rep.shares, rep.tracePath)
	}
}
