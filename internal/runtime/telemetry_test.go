package runtime

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"poly/internal/cluster"
	"poly/internal/fault"
	"poly/internal/parallel"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// TestServeTelemetryEquivalence replays the same Poisson trace through
// two identical sessions — telemetry attached vs disabled — and requires
// the runs to be indistinguishable: bit-identical latency samples, power
// series, task mix, and energy. Telemetry only observes inside existing
// callbacks and never schedules simulator events, so any divergence here
// means the observability layer perturbed the simulation it watches.
func TestServeTelemetryEquivalence(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 20000.0
		seed       = 7
	)
	warm := 0.2 * durationMS

	run := func(rec *telemetry.Recorder) (Result, []float64) {
		opts := Options{WarmupMS: warm}
		if rec != nil {
			opts.Telemetry = rec
		}
		sv := polySession(t, b, -1, opts)
		NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
		return sv.Collect(), sv.LatencySamples()
	}

	rec := telemetry.New()
	resT, latT := run(rec)
	resOff, latOff := run(nil)

	if resT.Arrivals != resOff.Arrivals || resT.Completed != resOff.Completed ||
		resT.Measured != resOff.Measured || resT.Violations != resOff.Violations ||
		resT.PlanErrors != resOff.PlanErrors {
		t.Fatalf("request accounting diverged:\n  telemetry: %+v\n  disabled:  %+v", resT, resOff)
	}
	if resT.GPUTasks != resOff.GPUTasks || resT.FPGATasks != resOff.FPGATasks ||
		resT.Reconfigs != resOff.Reconfigs {
		t.Fatalf("task mix diverged: GPU %d/%d, FPGA %d/%d, reconfigs %d/%d",
			resT.GPUTasks, resOff.GPUTasks, resT.FPGATasks, resOff.FPGATasks,
			resT.Reconfigs, resOff.Reconfigs)
	}
	if math.Float64bits(resT.EnergyMJ) != math.Float64bits(resOff.EnergyMJ) ||
		math.Float64bits(resT.DurationMS) != math.Float64bits(resOff.DurationMS) {
		t.Fatalf("energy accounting diverged: %.9f mJ / %.3f ms vs %.9f mJ / %.3f ms",
			resT.EnergyMJ, resT.DurationMS, resOff.EnergyMJ, resOff.DurationMS)
	}
	if len(latT) != len(latOff) {
		t.Fatalf("latency sample counts diverged: %d vs %d", len(latT), len(latOff))
	}
	for i := range latT {
		if math.Float64bits(latT[i]) != math.Float64bits(latOff[i]) {
			t.Fatalf("latency sample %d diverged: %v vs %v", i, latT[i], latOff[i])
		}
	}
	if resT.Power.Len() != resOff.Power.Len() {
		t.Fatalf("power series lengths diverged: %d vs %d", resT.Power.Len(), resOff.Power.Len())
	}
	for i := range resT.Power.Times {
		if resT.Power.Times[i] != resOff.Power.Times[i] ||
			math.Float64bits(resT.Power.Values[i]) != math.Float64bits(resOff.Power.Values[i]) {
			t.Fatalf("power series diverged at %d", i)
		}
	}

	// The recorder must have actually observed the run: one finished span
	// per completed request, and kernel activity on the boards.
	if got := rec.SpanTotal(); got != resT.Completed {
		t.Fatalf("recorder saw %d spans, run completed %d requests", got, resT.Completed)
	}
	launches := rec.Registry().Counter("poly_device_launches_total", "", "device", "gpu0").Value()
	if launches == 0 {
		t.Fatal("no GPU launches recorded")
	}
	if rec.TraceEventCount() == 0 {
		t.Fatal("trace buffer empty after a full serve")
	}

	// Resource accounting must mirror the node's declared envelope. The
	// ratio gauges are synced at scrape time, so flush one exposition
	// before reading.
	if err := rec.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	sv := polySession(t, b, -1, Options{})
	capN := sv.node.Capacity()
	reg := rec.Registry()
	for _, c := range []struct {
		resource string
		want     float64
	}{
		{telemetry.ResComputeSlots, capN.ComputeSlots},
		{telemetry.ResPowerW, capN.PowerW},
		{telemetry.ResFPGARegions, capN.FPGARegions},
	} {
		got := reg.Gauge("poly_node_allocatable", "", "resource", c.resource).Value()
		if got != c.want {
			t.Fatalf("poly_node_allocatable{resource=%q} = %v, want %v (node.Capacity)", c.resource, got, c.want)
		}
		ratio := reg.Gauge("poly_node_utilization_ratio", "", "resource", c.resource).Value()
		if ratio < 0 || ratio > 1 {
			t.Fatalf("poly_node_utilization_ratio{resource=%q} = %v, want within [0,1]", c.resource, ratio)
		}
	}

	// Every retained span satisfies the stage-sum invariant bit-exactly.
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("span ring empty after a full serve")
	}
	for _, sp := range spans {
		if sum := sp.Stages.SumMS(); math.Float64bits(sum) != math.Float64bits(sp.LatencyMS) {
			t.Fatalf("span %d: stage sum %v != latency %v (%+v)", sp.ID, sum, sp.LatencyMS, sp.Stages)
		}
	}
}

// TestServeStageInvariantAcrossWorkers replays the same sessions under
// worker pools of size 1 and 4, each with its own recorder, and checks
// the two stage-attribution promises at once: every retained span's
// breakdown sums to its latency bit-exactly, and the breakdowns
// themselves are bit-identical at any pool size — stage attribution is
// part of the deterministic outcome, not a best-effort annotation.
func TestServeStageInvariantAcrossWorkers(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 8000.0
		sessions   = 3
	)
	type spanRec struct {
		id      uint64
		latency float64
		stages  telemetry.StageBreakdown
	}
	runAll := func(workers int) [][]spanRec {
		out, err := parallel.MapN(workers, sessions, func(i int) ([]spanRec, error) {
			rec := telemetry.NewWithOptions(telemetry.Options{SpanRingCap: 1 << 16})
			sv, _, err := b.NewSession(Options{WarmupMS: 0.2 * durationMS, Telemetry: rec})
			if err != nil {
				return nil, err
			}
			NewWorkload(int64(10+i)).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
			sv.Collect()
			spans := rec.Spans()
			recs := make([]spanRec, 0, len(spans))
			for _, sp := range spans {
				if sum := sp.Stages.SumMS(); math.Float64bits(sum) != math.Float64bits(sp.LatencyMS) {
					return nil, fmt.Errorf("span %d: stage sum %v != latency %v (%+v)",
						sp.ID, sum, sp.LatencyMS, sp.Stages)
				}
				recs = append(recs, spanRec{id: sp.ID, latency: sp.LatencyMS, stages: sp.Stages})
			}
			return recs, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := runAll(1)
	pooled := runAll(4)
	for s := range serial {
		if len(serial[s]) == 0 {
			t.Fatalf("session %d retained no spans", s)
		}
		if len(serial[s]) != len(pooled[s]) {
			t.Fatalf("session %d: %d spans at workers=1, %d at workers=4", s, len(serial[s]), len(pooled[s]))
		}
		for i := range serial[s] {
			a, b := serial[s][i], pooled[s][i]
			if a.id != b.id || math.Float64bits(a.latency) != math.Float64bits(b.latency) {
				t.Fatalf("session %d span %d: identity diverged across pools", s, i)
			}
			for st := 0; st < telemetry.NumStages; st++ {
				if math.Float64bits(a.stages.Get(st)) != math.Float64bits(b.stages.Get(st)) {
					t.Fatalf("session %d span %d stage %s diverged: %v vs %v",
						s, i, telemetry.StageNames[st], a.stages.Get(st), b.stages.Get(st))
				}
			}
		}
	}
}

// TestGovernorTransitionLatencyPressure drives the governor's boost path
// directly: a monitoring window whose p95 crowds the bound must flip the
// mode to boost with cause latency_pressure, and the transition must land
// in the registry and as a governor-track trace instant.
func TestGovernorTransitionLatencyPressure(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	rec := telemetry.New()
	sv := polySession(t, b, -1, Options{Telemetry: rec})

	// ≥10 samples in the last window, tail above 0.85×bound; one arrival
	// so the idle branch doesn't win.
	for i := 0; i < 12; i++ {
		sv.lastWindow.Add(0.95 * sv.Bound())
	}
	sv.windowArrivals = 1
	sv.governorTick()

	if got := rec.Registry().Counter("poly_governor_transitions_total", "",
		"from", "nominal", "to", "boost", "cause", "latency_pressure").Value(); got != 1 {
		t.Fatalf("boost/latency_pressure transitions = %v, want 1", got)
	}

	// Next tick with nothing in flight: idle parks the node in lowpower.
	sv.windowArrivals = 0
	sv.governorTick()
	if got := rec.Registry().Counter("poly_governor_transitions_total", "",
		"from", "boost", "to", "lowpower", "cause", "idle").Value(); got != 1 {
		t.Fatalf("lowpower/idle transitions = %v, want 1", got)
	}

	// An arrival while parked wakes the node immediately.
	sv.Inject(sv.sim.Now() + 1)
	sv.sim.RunUntil(sv.sim.Now() + 2)
	if got := rec.Registry().Counter("poly_governor_transitions_total", "",
		"from", "lowpower", "to", "nominal", "cause", "arrival_wake").Value(); got != 1 {
		t.Fatalf("nominal/arrival_wake transitions = %v, want 1", got)
	}
}

// TestServeSpanLifecycle serves a short run against an impossibly tight
// bound and checks the span records: every completed request yields a
// span whose kernels carry ordered queue/start/end stamps, and the
// violation flags agree with the server's own QoS accounting.
func TestServeSpanLifecycle(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	rec := telemetry.NewWithOptions(telemetry.Options{SpanRingCap: 4096})
	sv := polySession(t, b, -1, Options{BoundMS: 1, Telemetry: rec})
	NewWorkload(3).InjectPoisson(sv, 10, 0, 3000)
	res := sv.Collect()
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	spans := rec.Spans()
	if len(spans) != res.Completed {
		t.Fatalf("ring holds %d spans, want %d", len(spans), res.Completed)
	}
	violations := 0
	for _, sp := range spans {
		if len(sp.Kernels) == 0 {
			t.Fatalf("span %d has no kernels", sp.ID)
		}
		for _, k := range sp.Kernels {
			if k.Device == "" || k.ImplID == "" {
				t.Fatalf("span %d kernel %q missing placement (%q, %q)", sp.ID, k.Kernel, k.Device, k.ImplID)
			}
			if k.StartMS < k.QueuedMS || k.EndMS < k.StartMS {
				t.Fatalf("span %d kernel %q stamps out of order: queued %v start %v end %v",
					sp.ID, k.Kernel, k.QueuedMS, k.StartMS, k.EndMS)
			}
		}
		if sp.AdmitWaitMS() < 0 {
			t.Fatalf("span %d negative admit wait", sp.ID)
		}
		if sp.Measured && sp.Violation {
			violations++
		}
	}
	if violations != res.Violations {
		t.Fatalf("span violations = %d, server counted %d", violations, res.Violations)
	}
	if res.Violations == 0 {
		t.Fatal("a 1 ms bound should violate; the test lost its teeth")
	}
}

// BenchmarkServeTelemetryOn is BenchmarkServeSteadyState with a
// recorder attached — compare the two to see what observing costs; CI
// gates the ratio at 1.10× (cmd/benchgate -ratio). The recorder lives
// outside the loop: its lifetime is the process, not the session, which
// is exactly how polysim and polybench hold one — per-iteration metric
// registration would measure setup, not observation. (The disabled-sink
// overhead is the delta between BenchmarkServeSteadyState before and
// after this package existed: nil-checks only.)
func BenchmarkServeTelemetryOn(b *testing.B) {
	bench := benches(b, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 5000.0
	)
	rec := telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := polySession(b, bench, -1, Options{WarmupMS: 1000, Telemetry: rec})
		NewWorkload(1).InjectConstant(sv, rps, 0, sim.Time(durationMS))
		res := sv.Collect()
		if res.PlanErrors != 0 {
			b.Fatalf("%d plan errors", res.PlanErrors)
		}
	}
}

// TestTelemetryRetentionEquivalence serves one faulted, batched session
// twice: once into a full recorder and once into one that keeps neither
// trace nor flight ring, the recorder every fleet shard gets. What a
// recorder keeps must not touch the run or its metrics: the results and
// latency samples are bit-identical, the expositions byte-identical, and
// both recorders report the same first flight trigger. The keep-none
// side holds no trace event, counts no drop, and refuses to write a
// trace or a flight dump.
func TestTelemetryRetentionEquivalence(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	run := func(rec *telemetry.Recorder) (Result, []float64) {
		sv := polySession(t, b, -1, Options{
			WarmupMS:    1000,
			BatchWaitMS: 4,
			Telemetry:   rec,
			Faults: &fault.Config{Seed: 7, Script: []fault.Window{
				{Board: "gpu0", Kind: fault.Failure, Start: 3000, End: 4000},
			}},
		})
		NewWorkload(7).InjectPoisson(sv, 200, 0, sim.Time(8000))
		return sv.Collect(), sv.LatencySamples()
	}
	full := telemetry.New()
	none := telemetry.NewWithOptions(telemetry.Options{TraceEventCap: -1, FlightRingCap: -1})
	resFull, latFull := run(full)
	resNone, latNone := run(none)
	sameServe(t, "keep-none vs full recorder", resNone, resFull, latNone, latFull)
	if !reflect.DeepEqual(resNone, resFull) {
		t.Fatalf("results differ:\n  keep-none: %+v\n  full:      %+v", resNone, resFull)
	}
	if resFull.BoardDownEvents == 0 || resFull.BatchGroups == 0 {
		t.Fatalf("the session is not faulted and batched: %d board-down events, %d batch groups",
			resFull.BoardDownEvents, resFull.BatchGroups)
	}

	var promFull, promNone bytes.Buffer
	if err := full.WritePrometheus(&promFull); err != nil {
		t.Fatal(err)
	}
	if err := none.WritePrometheus(&promNone); err != nil {
		t.Fatal(err)
	}
	if promNone.String() != promFull.String() {
		t.Fatal("keep-none exposition differs from the full recorder's")
	}

	if n, d := none.TraceEventCount(), none.TraceDropped(); n != 0 || d != 0 {
		t.Fatalf("keep-none recorder: %d trace events kept, %d dropped; want 0 and 0", n, d)
	}
	if full.TraceEventCount() == 0 {
		t.Fatal("full recorder kept no trace events")
	}
	causeF, atF, okF := full.FlightTriggered()
	causeN, atN, okN := none.FlightTriggered()
	if !okF || causeN != causeF || math.Float64bits(atN) != math.Float64bits(atF) || okN != okF {
		t.Fatalf("FlightTriggered: keep-none (%q, %v, %v), full (%q, %v, %v)", causeN, atN, okN, causeF, atF, okF)
	}
	if err := none.WriteTrace(io.Discard); err == nil {
		t.Fatal("keep-none WriteTrace returned no error")
	}
	if err := none.WriteFlight(io.Discard); err == nil {
		t.Fatal("keep-none WriteFlight returned no error")
	}
}
