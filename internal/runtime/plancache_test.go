package runtime

import (
	"math"
	"testing"

	"poly/internal/cluster"
	"poly/internal/sched"
	"poly/internal/sim"
)

// polySession builds a Heter-Poly serving session whose scheduler has the
// given plan-cache capacity (< 0 keeps the default). NewSession hides the
// planner, so equivalence tests wire the server by hand.
func polySession(tb testing.TB, b Bench, cacheCap int, opts Options) *Server {
	tb.Helper()
	plan, err := cluster.Provision(cluster.Config{
		Arch: cluster.HeterPoly, Setting: b.Setting, PowerCapW: 500,
	})
	if err != nil {
		tb.Fatal(err)
	}
	node := cluster.Build(sim.New(), plan)
	pl, err := sched.New(b.Prog, b.Spaces)
	if err != nil {
		tb.Fatal(err)
	}
	if cacheCap >= 0 {
		pl.SetPlanCacheCapacity(cacheCap)
	}
	opts.Governor = true
	sv, err := NewServer(node, b.Prog, pl, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sv
}

// TestServeCachedMatchesUncached replays the same Poisson trace through
// two identical sessions — plan cache on vs off — and requires the runs to
// be indistinguishable (see serveCachedMatchesUncached). This is the
// end-to-end form of the memoization soundness contract: if any cached
// plan differed from cold planning, the event-driven simulation would
// diverge and some series would split.
func TestServeCachedMatchesUncached(t *testing.T) {
	sv := serveCachedMatchesUncached(t, 40, 20000, 7)
	// The trace must actually exercise the cache. (A Poisson process
	// presents continuously-valued backlogs, so hits come only from the
	// recurring idle/light signatures — the >50 % steady-state hit-rate
	// requirement is asserted under constant-interval load, where the
	// admission-time state genuinely recurs; see TestServeConstantLoadHitRate.)
	if hits, misses := sv.PlannerCacheStats(); hits == 0 {
		t.Fatalf("cached session never hit (hits=%d misses=%d)", hits, misses)
	}
}

// TestServeCachedMatchesUncachedAtKnee is the same contract at the QoS
// knee (80 RPS Poisson), where almost no plan repeats and the plan cache
// stops retaining plans during long miss streaks. The bypass must leave
// the run bit-identical too.
func TestServeCachedMatchesUncachedAtKnee(t *testing.T) {
	sv := serveCachedMatchesUncached(t, 80, 30000, 1)
	// The bypass engaged: a cache that kept every miss would hold one
	// entry per miss (the run plans far fewer than its capacity).
	_, misses := sv.PlannerCacheStats()
	if n := sv.dyn.PlanCacheLen(); n >= misses {
		t.Fatalf("cache holds %d plans after %d misses: the miss-streak bypass never engaged", n, misses)
	}
}

// serveCachedMatchesUncached serves one Poisson trace through a session
// with the default plan cache and one with it disabled, requires
// bit-identical latency samples, power series, task mix, reconfiguration
// count and energy, and returns the cached session.
func serveCachedMatchesUncached(t *testing.T, rps, durationMS float64, seed int64) *Server {
	t.Helper()
	b := benches(t, "ASR")[cluster.HeterPoly]
	warm := 0.2 * durationMS

	run := func(cacheCap int) (*Server, Result, []float64) {
		sv := polySession(t, b, cacheCap, Options{WarmupMS: warm})
		NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
		res := sv.Collect()
		return sv, res, sv.LatencySamples()
	}

	svC, resC, latC := run(-1) // default cache
	svU, resU, latU := run(0)  // disabled
	if hu, mu := svU.PlannerCacheStats(); hu != 0 || mu != 0 {
		t.Fatalf("uncached session recorded cache traffic: hits=%d misses=%d", hu, mu)
	}

	if resC.Arrivals != resU.Arrivals || resC.Completed != resU.Completed ||
		resC.Measured != resU.Measured || resC.Violations != resU.Violations ||
		resC.PlanErrors != resU.PlanErrors {
		t.Fatalf("request accounting diverged:\n  cached:   %+v\n  uncached: %+v", resC, resU)
	}
	if resC.GPUTasks != resU.GPUTasks || resC.FPGATasks != resU.FPGATasks ||
		resC.Reconfigs != resU.Reconfigs {
		t.Fatalf("task mix diverged: GPU %d/%d, FPGA %d/%d, reconfigs %d/%d",
			resC.GPUTasks, resU.GPUTasks, resC.FPGATasks, resU.FPGATasks,
			resC.Reconfigs, resU.Reconfigs)
	}
	if math.Float64bits(resC.EnergyMJ) != math.Float64bits(resU.EnergyMJ) ||
		math.Float64bits(resC.DurationMS) != math.Float64bits(resU.DurationMS) {
		t.Fatalf("energy accounting diverged: %.9f mJ / %.3f ms vs %.9f mJ / %.3f ms",
			resC.EnergyMJ, resC.DurationMS, resU.EnergyMJ, resU.DurationMS)
	}

	if len(latC) != len(latU) {
		t.Fatalf("latency sample counts diverged: %d vs %d", len(latC), len(latU))
	}
	// Samples stay in insertion order (Percentile never reorders them),
	// so the same trace yields the same sequence; compare bitwise.
	for i := range latC {
		if math.Float64bits(latC[i]) != math.Float64bits(latU[i]) {
			t.Fatalf("latency sample %d diverged: %v vs %v", i, latC[i], latU[i])
		}
	}

	if resC.Power.Len() != resU.Power.Len() {
		t.Fatalf("power series lengths diverged: %d vs %d", resC.Power.Len(), resU.Power.Len())
	}
	for i := range resC.Power.Times {
		if resC.Power.Times[i] != resU.Power.Times[i] ||
			math.Float64bits(resC.Power.Values[i]) != math.Float64bits(resU.Power.Values[i]) {
			t.Fatalf("power series diverged at %d: (%v, %v) vs (%v, %v)", i,
				resC.Power.Times[i], resC.Power.Values[i],
				resU.Power.Times[i], resU.Power.Values[i])
		}
	}
	return svC
}

// TestServeConstantLoadHitRate checks the cache earns its keep on the
// workload it targets: a steady constant-interval load, where after warmup
// the node presents a recurring admission-time signature. The paper's
// motivation study drives exactly this shape ("requests ... sent in a
// constant interval").
func TestServeConstantLoadHitRate(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	sv := polySession(t, b, -1, Options{WarmupMS: 4000})
	NewWorkload(1).InjectConstant(sv, 40, 0, 20000)
	res := sv.Collect()
	if res.PlanErrors != 0 {
		t.Fatalf("%d plan errors", res.PlanErrors)
	}
	hits, misses := sv.PlannerCacheStats()
	if hits+misses == 0 {
		t.Fatal("nothing planned")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("steady-state hit rate %.2f below 0.5 (hits=%d misses=%d)", rate, hits, misses)
	}
}

// BenchmarkServeSteadyState measures one whole constant-load serving run —
// admission, planning, device simulation, and drain — which is the
// composite the plan cache exists to speed up. hitRate reports the plan
// cache's share of planning calls served from memory.
func BenchmarkServeSteadyState(b *testing.B) {
	bench := benches(b, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 5000.0
	)
	var hits, misses int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := polySession(b, bench, -1, Options{WarmupMS: 1000})
		NewWorkload(1).InjectConstant(sv, rps, 0, sim.Time(durationMS))
		res := sv.Collect()
		if res.PlanErrors != 0 {
			b.Fatalf("%d plan errors", res.PlanErrors)
		}
		hits, misses = sv.PlannerCacheStats()
	}
	b.StopTimer()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hitRate")
	}
}

// BenchmarkServeBatchedHighLoad is BenchmarkServeHighLoad with the
// admission batcher on: the same 5× saturation load, now flowing through
// the staging stage (group formation, flush timers, group planning). It
// gates the batcher's own overhead — the staged path must not cost more
// than the launch sharing it buys. amort reports GPU kernel executions
// per physical launch.
func BenchmarkServeBatchedHighLoad(b *testing.B) {
	bench := benches(b, "ASR")[cluster.HeterPoly]
	const (
		rps        = 200.0
		durationMS = 5000.0
	)
	var last Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := polySession(b, bench, -1, Options{WarmupMS: 1000, BatchWaitMS: 4})
		NewWorkload(1).InjectConstant(sv, rps, 0, sim.Time(durationMS))
		last = sv.Collect()
		if last.PlanErrors != 0 {
			b.Fatalf("%d plan errors", last.PlanErrors)
		}
	}
	b.StopTimer()
	if last.GPULaunches > 0 {
		b.ReportMetric(last.LaunchAmortization(), "amort")
	}
}

// BenchmarkServeHighLoad is the saturation companion to SteadyState: 5×
// the arrival rate, so queues stay deep, GPU batches fill, and the
// admission-time device signature varies far more (lower cache hit rate,
// more cold planning). It gates the cold-path planner and the event core
// under backlog, where the steady-state benchmark mostly gates the cache.
func BenchmarkServeHighLoad(b *testing.B) {
	bench := benches(b, "ASR")[cluster.HeterPoly]
	const (
		rps        = 200.0
		durationMS = 5000.0
	)
	var hits, misses int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := polySession(b, bench, -1, Options{WarmupMS: 1000})
		NewWorkload(1).InjectConstant(sv, rps, 0, sim.Time(durationMS))
		res := sv.Collect()
		if res.PlanErrors != 0 {
			b.Fatalf("%d plan errors", res.PlanErrors)
		}
		hits, misses = sv.PlannerCacheStats()
	}
	b.StopTimer()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hitRate")
	}
}
