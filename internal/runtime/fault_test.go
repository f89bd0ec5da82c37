package runtime

import (
	"fmt"
	"math"
	"testing"

	"poly/internal/cluster"
	"poly/internal/fault"
	"poly/internal/parallel"
	"poly/internal/sim"
)

// sameServe asserts two runs of the same trace are bit-identical:
// request accounting, fault counters, energy, latency samples, and the
// power series. The fault layer's transparency and determinism tests
// both reduce to this comparison.
func sameServe(t *testing.T, label string, a, b Result, latA, latB []float64) {
	t.Helper()
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed ||
		a.Measured != b.Measured || a.Violations != b.Violations ||
		a.PlanErrors != b.PlanErrors {
		t.Fatalf("%s: request accounting diverged:\n  a: %+v\n  b: %+v", label, a, b)
	}
	if a.Shed != b.Shed || a.Retries != b.Retries || a.TaskFailures != b.TaskFailures ||
		a.FailedRequests != b.FailedRequests || a.BoardDownEvents != b.BoardDownEvents {
		t.Fatalf("%s: fault accounting diverged: shed %d/%d retries %d/%d failures %d/%d dropped %d/%d down %d/%d",
			label, a.Shed, b.Shed, a.Retries, b.Retries, a.TaskFailures, b.TaskFailures,
			a.FailedRequests, b.FailedRequests, a.BoardDownEvents, b.BoardDownEvents)
	}
	if a.GPUTasks != b.GPUTasks || a.FPGATasks != b.FPGATasks || a.Reconfigs != b.Reconfigs {
		t.Fatalf("%s: task mix diverged: GPU %d/%d, FPGA %d/%d, reconfigs %d/%d",
			label, a.GPUTasks, b.GPUTasks, a.FPGATasks, b.FPGATasks, a.Reconfigs, b.Reconfigs)
	}
	if math.Float64bits(a.EnergyMJ) != math.Float64bits(b.EnergyMJ) ||
		math.Float64bits(a.DurationMS) != math.Float64bits(b.DurationMS) {
		t.Fatalf("%s: energy accounting diverged: %.9f mJ / %.3f ms vs %.9f mJ / %.3f ms",
			label, a.EnergyMJ, a.DurationMS, b.EnergyMJ, b.DurationMS)
	}
	if len(latA) != len(latB) {
		t.Fatalf("%s: latency sample counts diverged: %d vs %d", label, len(latA), len(latB))
	}
	for i := range latA {
		if math.Float64bits(latA[i]) != math.Float64bits(latB[i]) {
			t.Fatalf("%s: latency sample %d diverged: %v vs %v", label, i, latA[i], latB[i])
		}
	}
	if a.Power.Len() != b.Power.Len() {
		t.Fatalf("%s: power series lengths diverged: %d vs %d", label, a.Power.Len(), b.Power.Len())
	}
	for i := range a.Power.Times {
		if a.Power.Times[i] != b.Power.Times[i] ||
			math.Float64bits(a.Power.Values[i]) != math.Float64bits(b.Power.Values[i]) {
			t.Fatalf("%s: power series diverged at %d", label, i)
		}
	}
}

// TestServeFaultsDisabledEquivalence replays one Poisson trace through
// three sessions — no fault config, a zero-rate config, and an armed
// injector whose script only targets a nonexistent board — and requires
// all three to be bit-identical. The third session exercises every hook
// (TaskFailed wiring, ExecScale calls, the deviation monitor, health-gated
// admission) with the injector returning neutral answers, so any
// perturbation the fault layer leaks into a fault-free run fails here.
func TestServeFaultsDisabledEquivalence(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 20000.0
		seed       = 7
	)
	warm := 0.2 * durationMS

	run := func(cfg *fault.Config) (Result, []float64) {
		sv := polySession(t, b, -1, Options{WarmupMS: warm, Faults: cfg})
		NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
		return sv.Collect(), sv.LatencySamples()
	}

	resOff, latOff := run(nil)
	resZero, latZero := run(&fault.Config{Seed: seed})
	resInert, latInert := run(&fault.Config{Seed: seed, Script: []fault.Window{
		{Board: "no-such-board", Kind: fault.Failure, Start: 0, End: sim.Time(durationMS)},
	}})

	sameServe(t, "zero-rate config vs disabled", resZero, resOff, latZero, latOff)
	sameServe(t, "inert armed injector vs disabled", resInert, resOff, latInert, latOff)
	if resInert.Shed+resInert.Retries+resInert.TaskFailures+resInert.FailedRequests+resInert.BoardDownEvents != 0 {
		t.Fatalf("inert injector produced fault accounting: %+v", resInert)
	}
}

// TestServeUnderBoardFailure stages a full gpu0 outage mid-run at 40 RPS
// and requires graceful degradation: the monitor must notice the board
// (down transitions observed), lost kernels must be re-placed on the
// survivors, the accounting must balance (every arrival is completed,
// shed, dropped, or a plan error — never lost), and the tail of the
// admitted population must still meet the QoS criterion (at most 1 %
// violations, the same test MaxThroughputRPS applies).
func TestServeUnderBoardFailure(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 20000.0
		seed       = 7
	)
	cfg := &fault.Config{Seed: seed, Script: []fault.Window{
		{Board: "gpu0", Kind: fault.Failure, Start: 6000, End: 10000},
	}}
	sv := polySession(t, b, -1, Options{WarmupMS: 0.2 * durationMS, Faults: cfg})
	NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
	res := sv.Collect()

	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.TaskFailures == 0 || res.Retries == 0 {
		t.Fatalf("outage left no trace: %d task failures, %d retries", res.TaskFailures, res.Retries)
	}
	if res.BoardDownEvents == 0 {
		t.Fatal("monitor never marked the failed board down")
	}
	if got := res.Arrivals - res.Completed - res.Shed - res.FailedRequests - res.PlanErrors; got != 0 {
		t.Fatalf("accounting leak: %d arrivals unaccounted for (%+v)", got, res)
	}
	if ratio := res.ViolationRatio(); ratio > 0.01 {
		t.Fatalf("admitted tail broke the bound: violation ratio %.4f (p99 %.2f ms, bound %.0f ms)",
			ratio, res.P99MS, res.BoundMS)
	}
}

// TestServeFaultDeterminismAcrossPools runs the same three chaos-preset
// sessions under worker pools of size 1 and 4 and requires bit-identical
// results. Fault plans are pregenerated per board from the scenario seed
// and each session owns its own simulator, so pool scheduling order must
// never leak into a run's outcome.
func TestServeFaultDeterminismAcrossPools(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 12000.0
		sessions   = 3
	)

	type outcome struct {
		res Result
		lat []float64
	}
	runAll := func(workers int) []outcome {
		out, err := parallel.MapN(workers, sessions, func(i int) (outcome, error) {
			cfg, err := fault.Preset("chaos", 11+int64(i))
			if err != nil {
				return outcome{}, err
			}
			sv, _, err := b.NewSession(Options{WarmupMS: 0.2 * durationMS, Faults: &cfg})
			if err != nil {
				return outcome{}, err
			}
			NewWorkload(int64(100+i)).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
			return outcome{res: sv.Collect(), lat: sv.LatencySamples()}, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}

	serial := runAll(1)
	pooled := runAll(4)
	sawFaults := false
	for i := range serial {
		sameServe(t, fmt.Sprintf("session %d workers 1 vs 4", i),
			serial[i].res, pooled[i].res, serial[i].lat, pooled[i].lat)
		if r := serial[i].res; r.TaskFailures+r.Retries+r.Shed+r.BoardDownEvents > 0 {
			sawFaults = true
		}
	}
	if !sawFaults {
		t.Fatal("chaos preset perturbed nothing; the determinism test lost its teeth")
	}
}
