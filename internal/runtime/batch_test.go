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

// TestServeBatchingDisabledEquivalence replays one Poisson trace through
// three sessions — the plain options, an explicit BatchWaitMS of zero,
// and a zero wait with a nonzero BatchCap — and requires all three to be
// bit-identical. BatchWaitMS == 0 must mean the staging stage does not
// exist, not that it exists with a zero hold: the whole disabled option
// surface has to be transparent.
func TestServeBatchingDisabledEquivalence(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 40.0
		durationMS = 20000.0
		seed       = 7
	)
	warm := 0.2 * durationMS

	run := func(opts Options) (Result, []float64) {
		opts.WarmupMS = warm
		sv := polySession(t, b, -1, opts)
		NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
		return sv.Collect(), sv.LatencySamples()
	}

	resOff, latOff := run(Options{})
	resZero, latZero := run(Options{BatchWaitMS: 0})
	resCap, latCap := run(Options{BatchWaitMS: 0, BatchCap: 64})

	sameServe(t, "explicit zero wait vs default", resZero, resOff, latZero, latOff)
	sameServe(t, "zero wait with cap vs default", resCap, resOff, latCap, latOff)
	if resCap.BatchGroups+resCap.BatchedRequests+resCap.BatchDisbands != 0 {
		t.Fatalf("disabled batcher recorded batch accounting: %+v", resCap)
	}
	if resCap.GPULaunches == 0 && resCap.GPUTasks > 0 {
		t.Fatal("launch counter not wired: GPU tasks ran but zero launches recorded")
	}
}

// TestServeBatchedFormation drives a Poisson load near the QoS knee —
// where bursts put consecutive arrivals inside the staging window but
// the node is not yet oversubscribed — and requires the batcher to
// actually form multi-request groups, and for those groups to pay off:
// more GPU kernel executions per physical launch, and a tail still
// inside the 1% QoS violation target, with the request accounting
// balancing. (Raw launch counts are not comparable across the two runs:
// guaranteed group fill makes batched GPU variants cheaper, so the
// planner legitimately shifts more work onto the GPU.)
func TestServeBatchedFormation(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 80.0
		durationMS = 8000.0
	)
	run := func(opts Options) Result {
		opts.WarmupMS = 1600
		sv := polySession(t, b, -1, opts)
		NewWorkload(1).InjectPoisson(sv, rps, 0, durationMS)
		return sv.Collect()
	}

	off := run(Options{})
	on := run(Options{BatchWaitMS: 4})

	if on.BatchGroups == 0 || on.MaxBatchSize < 2 {
		t.Fatalf("no groups formed: %d groups, max size %d", on.BatchGroups, on.MaxBatchSize)
	}
	if on.BatchedRequests <= on.BatchGroups {
		t.Fatalf("no multi-request groups: %d requests over %d groups",
			on.BatchedRequests, on.BatchGroups)
	}
	if on.MeanHoldMS <= 0 || on.MeanHoldMS > 4 {
		t.Fatalf("mean hold %.3f ms outside (0, BatchWaitMS]", on.MeanHoldMS)
	}
	if off.BatchGroups != 0 || off.GPULaunches == 0 {
		t.Fatalf("baseline run malformed: %+v", off)
	}
	if on.LaunchAmortization() <= off.LaunchAmortization() {
		t.Fatalf("amortization did not improve: %.3f on vs %.3f off",
			on.LaunchAmortization(), off.LaunchAmortization())
	}
	if limit := max(off.ViolationRatio(), 0.01); on.ViolationRatio() > limit {
		t.Fatalf("batching broke the tail: violation ratio %.4f on vs %.4f off (limit %.4f)",
			on.ViolationRatio(), off.ViolationRatio(), limit)
	}
	for _, r := range []Result{off, on} {
		if got := r.Arrivals - r.Completed - r.Shed - r.FailedRequests - r.PlanErrors; got != 0 {
			t.Fatalf("accounting leak: %d arrivals unaccounted for (%+v)", got, r)
		}
	}
}

// TestServeBatchedDeterminism requires a batched run to be a pure
// function of the arrival trace: the same seed twice must be
// bit-identical, and so must the same set of sessions executed under
// worker pools of size 1 and 4 — staging runs inside each session's own
// single-threaded simulator, so pool scheduling must never show through.
func TestServeBatchedDeterminism(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	const (
		rps        = 300.0
		durationMS = 6000.0
		sessions   = 3
	)
	opts := Options{WarmupMS: 1000, BatchWaitMS: 4}

	type outcome struct {
		res Result
		lat []float64
	}
	one := func(seed int64) outcome {
		sv := polySession(t, b, -1, opts)
		NewWorkload(seed).InjectPoisson(sv, rps, 0, durationMS)
		return outcome{res: sv.Collect(), lat: sv.LatencySamples()}
	}

	a, c := one(11), one(11)
	sameServe(t, "same seed twice", a.res, c.res, a.lat, c.lat)
	if a.res.BatchGroups != c.res.BatchGroups || a.res.BatchedRequests != c.res.BatchedRequests ||
		a.res.MaxBatchSize != c.res.MaxBatchSize || a.res.GPULaunches != c.res.GPULaunches {
		t.Fatalf("batch accounting diverged:\n  a: %+v\n  b: %+v", a.res, c.res)
	}
	if a.res.BatchGroups == 0 {
		t.Fatal("determinism test formed no groups; it lost its teeth")
	}

	runAll := func(workers int) []outcome {
		out, err := parallel.MapN(workers, sessions, func(i int) (outcome, error) {
			return one(int64(100 + i)), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := runAll(1)
	pooled := runAll(4)
	for i := range serial {
		sameServe(t, fmt.Sprintf("session %d workers 1 vs 4", i),
			serial[i].res, pooled[i].res, serial[i].lat, pooled[i].lat)
		if serial[i].res.GPULaunches != pooled[i].res.GPULaunches {
			t.Fatalf("session %d launch counts diverged: %d vs %d",
				i, serial[i].res.GPULaunches, pooled[i].res.GPULaunches)
		}
	}
}

// TestBatchDisbandPaths is the table of ways an open group can dissolve
// or fail mid-hold. Every row requires the one invariant the batcher must
// never break: each arrival ends exactly one way (completed, shed,
// dropped, or a plan error) — a staged request is never lost.
func TestBatchDisbandPaths(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	cases := []struct {
		name       string
		rps        float64
		durationMS float64
		opts       Options
		faults     []fault.Window
		check      func(t *testing.T, res Result)
	}{
		{
			// A gpu0 outage lands while groups are continuously open: the
			// failure's health transition must disband the in-flight group
			// (members re-admitted individually) and the run must still
			// degrade gracefully.
			name: "board failure mid-hold",
			rps:  300, durationMS: 12000,
			opts:   Options{BatchWaitMS: 4},
			faults: []fault.Window{{Board: "gpu0", Kind: fault.Failure, Start: 4000, End: 7000}},
			check: func(t *testing.T, res Result) {
				if res.BatchDisbands == 0 {
					t.Fatal("health transition never disbanded an open group")
				}
				if res.BoardDownEvents == 0 || res.TaskFailures == 0 {
					t.Fatalf("outage left no trace: %+v", res)
				}
				if res.Completed == 0 {
					t.Fatal("nothing completed")
				}
			},
		},
		{
			// Degradation window with a recovering board: suspect/healthy
			// probation transitions keep disbanding groups; batching must
			// compose with shedding (each shed member accounted once).
			name: "degraded admission during hold",
			rps:  300, durationMS: 12000,
			opts:   Options{BatchWaitMS: 4},
			faults: []fault.Window{{Board: "gpu0", Kind: fault.Failure, Start: 3000, End: 4000}},
			check: func(t *testing.T, res Result) {
				if res.BatchDisbands == 0 {
					t.Fatal("no disbands observed")
				}
				if res.BatchGroups == 0 {
					t.Fatal("batching never resumed after the episode")
				}
			},
		},
		{
			// Max-wait expiry racing a cap-full flush at the same instant:
			// the generation check must make whichever event runs second
			// inert. Two arrivals, the second landing exactly on the first's
			// staging deadline with a cap of two.
			name: "maxwait expiry racing full flush",
			rps:  0, durationMS: 0, // manual injection below
			opts: Options{BatchWaitMS: 5, BatchCap: 2},
			check: func(t *testing.T, res Result) {
				if res.Arrivals != 2 || res.Completed != 2 {
					t.Fatalf("want 2 arrivals completed, got %+v", res)
				}
				if res.BatchedRequests != 2 {
					t.Fatalf("double-flush or lost member: %d batched requests, want 2",
						res.BatchedRequests)
				}
				if res.BatchGroups < 1 || res.BatchGroups > 2 {
					t.Fatalf("implausible group count %d", res.BatchGroups)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.WarmupMS = 1000
			if tc.faults != nil {
				opts.Faults = &fault.Config{Seed: 7, Script: tc.faults}
			}
			sv := polySession(t, b, -1, opts)
			if tc.rps > 0 {
				NewWorkload(7).InjectPoisson(sv, tc.rps, 0, sim.Time(tc.durationMS))
			} else {
				// The racing row: deadline of the first arrival is t+5 (the
				// bound's slack floor is far above BatchWaitMS), and the
				// second arrival fills the cap at exactly that instant.
				sv.Inject(10)
				sv.Inject(15)
			}
			res := sv.Collect()
			if got := res.Arrivals - res.Completed - res.Shed - res.FailedRequests - res.PlanErrors; got != 0 {
				t.Fatalf("accounting leak: %d arrivals unaccounted for (%+v)", got, res)
			}
			tc.check(t, res)
		})
	}
}

// TestDisbandedMemberKeepsFullWindow pins the in-queue window of a member
// re-admitted by a disband: it is admitted as a single arrival and keeps
// the full admitWindowMS, unlike a flushed member, which keeps only what
// its hold left of it. A request staged at 10 ms and disbanded at 11 ms
// must therefore finish exactly when a request admitted directly at
// 11 ms does on an identical idle node. The load hint makes the planner
// pick batched GPU variants, the only tasks that wait out a window.
func TestDisbandedMemberKeepsFullWindow(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]

	staged := polySession(t, b, -1, Options{BatchWaitMS: 4, BatchCap: 2})
	staged.dyn.SetLoadHint(300)
	staged.Inject(10)
	staged.sim.RunUntil(11)
	if len(staged.batchArrivals) != 1 {
		t.Fatalf("arrival not staged: %d open members", len(staged.batchArrivals))
	}
	staged.disbandBatch()
	resS := staged.Collect()

	direct := polySession(t, b, -1, Options{})
	direct.dyn.SetLoadHint(300)
	direct.Inject(11)
	resD := direct.Collect()

	if resS.Completed != 1 || resD.Completed != 1 || resS.BatchDisbands != 1 {
		t.Fatalf("runs malformed: staged %+v, direct %+v", resS, resD)
	}
	endS := 10 + staged.LatencySamples()[0]
	endD := 11 + direct.LatencySamples()[0]
	if math.Abs(endS-endD) > 1e-9 {
		t.Fatalf("disbanded member finished at %.6f ms, direct admission at %.6f ms", endS, endD)
	}
}
