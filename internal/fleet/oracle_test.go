package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"poly/internal/fault"
	"poly/internal/runtime"
	"poly/internal/sim"
)

// sharedClock is the test oracle for the fleet's drain: every shard on
// ONE simulator, and each arrival's routing decision an event on that
// clock, scheduled at injection like a direct session's admit events.
// It is the plain reading of "N nodes behind a router" — no barriers,
// no per-shard clocks — so the production drain must reproduce it bit
// for bit.
type sharedClock struct {
	f *Fleet
	s *sim.Simulator
}

func newSharedClock(b runtime.Bench, opts Options) (*sharedClock, error) {
	s := sim.New()
	f, err := newFleet(b, opts, s)
	if err != nil {
		return nil, err
	}
	return &sharedClock{f: f, s: s}, nil
}

// Inject schedules the arrival's routing event on the shared clock.
func (o *sharedClock) Inject(at sim.Time) {
	o.f.pending++
	o.s.At(at, o.f.routeOne)
}

// Collect drains the shared clock in governor-period steps, exactly
// like Server.Collect, then summarizes through the production path.
func (o *sharedClock) Collect() Result {
	period := sim.Time(o.f.shards[0].srv.GovernorPeriodMS())
	horizon := o.s.Now() + period
	for !o.f.drained() {
		o.s.RunUntil(horizon)
		horizon += period
	}
	o.s.RunUntil(horizon)
	return o.f.result()
}

// sameFleetRun fails unless two fleet outcomes are bitwise identical:
// router accounting, per-node placements and outcomes, aggregate
// percentiles and energy, and every latency sample in node order. This
// is the comparison surface the shared-clock oracle gates use.
func sameFleetRun(t *testing.T, what string, a, b Result, latA, latB []float64) {
	t.Helper()
	if a.Injected != b.Injected || a.Shed != b.Shed || a.NodeDownEvents != b.NodeDownEvents {
		t.Fatalf("%s: router accounting diverged: injected %d/%d, shed %d/%d, down %d/%d",
			what, a.Injected, b.Injected, a.Shed, b.Shed, a.NodeDownEvents, b.NodeDownEvents)
	}
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatalf("%s: node counts diverged: %d vs %d", what, len(a.PerNode), len(b.PerNode))
	}
	for n := range a.PerNode {
		na, nb := a.PerNode[n], b.PerNode[n]
		if na.Placements != nb.Placements {
			t.Fatalf("%s: node %d placements diverged: %d vs %d", what, n, na.Placements, nb.Placements)
		}
		if na.Health != nb.Health {
			t.Fatalf("%s: node %d health diverged: %v vs %v", what, n, na.Health, nb.Health)
		}
		sameRun(t, what+" node "+na.Name, na.Result, nb.Result, nil, nil)
	}
	for _, f := range [][2]float64{
		{a.P50MS, b.P50MS}, {a.P99MS, b.P99MS}, {a.MeanMS, b.MeanMS},
		{a.EnergyMJ, b.EnergyMJ}, {a.DurationMS, b.DurationMS},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: aggregate diverged: %v vs %v", what, f[0], f[1])
		}
	}
	if len(latA) != len(latB) {
		t.Fatalf("%s: latency sample counts diverged: %d vs %d", what, len(latA), len(latB))
	}
	for i := range latA {
		if math.Float64bits(latA[i]) != math.Float64bits(latB[i]) {
			t.Fatalf("%s: latency sample %d diverged: %v vs %v", what, i, latA[i], latB[i])
		}
	}
}

// TestFleetParallelBitIdentity is the drain's equivalence gate: for
// every policy × node count × fault setting, a fleet run on its N
// parallel per-shard clocks — stepped in epochs on one goroutine — must
// be bit-identical to the shared-clock oracle, the contract that lets
// each shard own its simulator.
func TestFleetParallelBitIdentity(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 100.0
		durationMS = 5000.0
		seed       = 13
	)

	opts := func(nodes int, pol Policy, faults bool) Options {
		ro := runtime.Options{WarmupMS: 0.2 * durationMS}
		if faults {
			board := "gpu0"
			if nodes > 1 {
				board = "n1/gpu0"
			}
			ro.Faults = &fault.Config{Seed: seed, Script: []fault.Window{
				{Board: board, Kind: fault.Failure, Start: 2000, End: 1e9},
			}}
		}
		return Options{Nodes: nodes, Policy: pol, Runtime: ro}
	}

	for _, nodes := range []int{1, 2, 4} {
		for _, pol := range Policies() {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("%dn-%s", nodes, pol)
				if faults {
					name += "-faults"
				}
				t.Run(name, func(t *testing.T) {
					o := opts(nodes, pol, faults)
					ref, err := newSharedClock(b, o)
					if err != nil {
						t.Fatal(err)
					}
					runtime.NewWorkload(seed).InjectPoisson(ref, rps, 0, sim.Time(durationMS))
					want := ref.Collect()
					fleetAccounting(t, want)
					if want.Completed == 0 {
						t.Fatal("shared-clock oracle completed nothing; the gate has no teeth")
					}

					f, err := New(b, o)
					if err != nil {
						t.Fatal(err)
					}
					runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
					got := f.Collect()
					fleetAccounting(t, got)
					sameFleetRun(t, name, want, got, ref.f.LatencySamples(), f.LatencySamples())
				})
			}
		}
	}
}

// TestFleetEpochBoundaryArrivals is the property test for the drain's
// trickiest interleavings: arrival times that land exactly on epoch
// boundaries — governor-period multiples, where the sequence barrier
// must order routing between the shard's pre-run governor tick and its
// run-scheduled events at the same instant — plus duplicate times and
// out-of-order injection (exercising the stable sort's injection-order
// tie rule). Randomized over several seeds; every trace must be
// bit-identical to the shared-clock oracle.
func TestFleetEpochBoundaryArrivals(t *testing.T) {
	b := asrBench(t)
	opts := Options{Nodes: 4, Policy: LeastUtil, Runtime: runtime.Options{WarmupMS: 500}}

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		// Half the arrivals sit exactly on 500 ms governor edges
		// (duplicates likely), the rest at arbitrary instants; the whole
		// trace is injected in shuffled order.
		const n = 200
		times := make([]sim.Time, 0, n)
		for i := 0; i < n/2; i++ {
			times = append(times, sim.Time(500*(1+rng.Intn(8))))
		}
		for i := n / 2; i < n; i++ {
			times = append(times, sim.Time(rng.Float64()*4000))
		}
		rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })

		ref, err := newSharedClock(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range times {
			ref.Inject(at)
			f.Inject(at)
		}
		want, got := ref.Collect(), f.Collect()
		fleetAccounting(t, want)
		fleetAccounting(t, got)
		if want.Completed == 0 {
			t.Fatal("shared-clock oracle completed nothing")
		}
		sameFleetRun(t, fmt.Sprintf("epoch-boundary seed %d", seed), want, got,
			ref.f.LatencySamples(), f.LatencySamples())
	}
}
