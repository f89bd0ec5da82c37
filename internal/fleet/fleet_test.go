package fleet

import (
	"math"
	"strings"
	"testing"

	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/fault"
	"poly/internal/parallel"
	"poly/internal/runtime"
	"poly/internal/sim"
)

// asrBench builds the Heter-Poly ASR harness every fleet test shards.
func asrBench(tb testing.TB) runtime.Bench {
	tb.Helper()
	fw, err := core.App("ASR")
	if err != nil {
		tb.Fatal(err)
	}
	b, err := fw.Bench(cluster.HeterPoly, cluster.SettingI)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// sameRun fails unless two single-node outcomes are bitwise identical:
// counts, task mix, energy, every latency sample, and the full power
// series. This is the comparison surface all equivalence gates share.
func sameRun(t *testing.T, what string, a, b runtime.Result, latA, latB []float64) {
	t.Helper()
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed ||
		a.Measured != b.Measured || a.Violations != b.Violations ||
		a.PlanErrors != b.PlanErrors || a.Shed != b.Shed {
		t.Fatalf("%s: request accounting diverged:\n  a: %+v\n  b: %+v", what, a, b)
	}
	if a.GPUTasks != b.GPUTasks || a.FPGATasks != b.FPGATasks || a.Reconfigs != b.Reconfigs {
		t.Fatalf("%s: task mix diverged: GPU %d/%d, FPGA %d/%d, reconfigs %d/%d",
			what, a.GPUTasks, b.GPUTasks, a.FPGATasks, b.FPGATasks, a.Reconfigs, b.Reconfigs)
	}
	if math.Float64bits(a.EnergyMJ) != math.Float64bits(b.EnergyMJ) ||
		math.Float64bits(a.DurationMS) != math.Float64bits(b.DurationMS) {
		t.Fatalf("%s: energy accounting diverged: %.9f mJ / %.3f ms vs %.9f mJ / %.3f ms",
			what, a.EnergyMJ, a.DurationMS, b.EnergyMJ, b.DurationMS)
	}
	if len(latA) != len(latB) {
		t.Fatalf("%s: latency sample counts diverged: %d vs %d", what, len(latA), len(latB))
	}
	for i := range latA {
		if math.Float64bits(latA[i]) != math.Float64bits(latB[i]) {
			t.Fatalf("%s: latency sample %d diverged: %v vs %v", what, i, latA[i], latB[i])
		}
	}
	if a.Power.Len() != b.Power.Len() {
		t.Fatalf("%s: power series lengths diverged: %d vs %d", what, a.Power.Len(), b.Power.Len())
	}
	for i := range a.Power.Times {
		if a.Power.Times[i] != b.Power.Times[i] ||
			math.Float64bits(a.Power.Values[i]) != math.Float64bits(b.Power.Values[i]) {
			t.Fatalf("%s: power series diverged at %d", what, i)
		}
	}
}

// TestFleetRouterBitTransparency: a 1-node fleet behind the router must
// be indistinguishable from a direct runtime.Server session — same node
// assembly (empty board-name prefix), same event sequence, bit-identical
// outcome — under every policy, since a singleton candidate set leaves a
// policy nothing to decide. This is the fleet layer's equivalence gate,
// the same contract the telemetry, fault, and batching layers carry.
func TestFleetRouterBitTransparency(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 40.0
		durationMS = 20000.0
		seed       = 7
	)
	ropts := runtime.Options{WarmupMS: 0.2 * durationMS}

	sv, _, err := b.NewSession(ropts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.NewWorkload(seed).InjectPoisson(sv, rps, 0, sim.Time(durationMS))
	direct := sv.Collect()
	directLat := sv.LatencySamples()
	if direct.Completed == 0 {
		t.Fatal("direct session completed nothing; the gate has no teeth")
	}

	for _, pol := range Policies() {
		f, err := New(b, Options{Nodes: 1, Policy: pol, Runtime: ropts})
		if err != nil {
			t.Fatal(err)
		}
		runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
		res := f.Collect()
		if res.Shed != 0 {
			t.Fatalf("policy %v: router shed %d on a healthy singleton", pol, res.Shed)
		}
		if res.Injected != direct.Arrivals {
			t.Fatalf("policy %v: router saw %d arrivals, direct saw %d", pol, res.Injected, direct.Arrivals)
		}
		sameRun(t, "router("+pol.String()+") vs direct", res.PerNode[0].Result, direct,
			f.LatencySamples(), directLat)
		// The aggregate view must equal the single node's view bit-for-bit.
		if math.Float64bits(res.P99MS) != math.Float64bits(direct.P99MS) ||
			math.Float64bits(res.EnergyMJ) != math.Float64bits(direct.EnergyMJ) {
			t.Fatalf("policy %v: aggregate diverged from the singleton node", pol)
		}
	}
}

// TestFleetDeterminismAcrossWorkers: a fleet session is single-threaded
// on its own simulator, so a sweep of fleet runs must produce
// bit-identical results whether the sweep runs serially or on a 4-wide
// worker pool — placements, per-node outcomes, and latency samples.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 120.0
		durationMS = 10000.0
		sessions   = 3
	)
	type outcome struct {
		res Result
		lat []float64
	}
	runAll := func(workers int) []outcome {
		out, err := parallel.MapN(workers, sessions, func(i int) (outcome, error) {
			f, err := New(b, Options{Nodes: 4, Policy: LeastUtil,
				Runtime: runtime.Options{WarmupMS: 0.2 * durationMS}})
			if err != nil {
				return outcome{}, err
			}
			runtime.NewWorkload(int64(20+i)).InjectPoisson(f, rps, 0, sim.Time(durationMS))
			return outcome{res: f.Collect(), lat: f.LatencySamples()}, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := runAll(1)
	pooled := runAll(4)
	for s := range serial {
		a, b := serial[s], pooled[s]
		if a.res.Injected == 0 || a.res.Completed == 0 {
			t.Fatalf("session %d served nothing", s)
		}
		for n := range a.res.PerNode {
			na, nb := a.res.PerNode[n], b.res.PerNode[n]
			if na.Placements != nb.Placements {
				t.Fatalf("session %d node %d: placements %d at workers=1, %d at workers=4",
					s, n, na.Placements, nb.Placements)
			}
			if na.Completed != nb.Completed ||
				math.Float64bits(na.EnergyMJ) != math.Float64bits(nb.EnergyMJ) {
				t.Fatalf("session %d node %d: outcome diverged across pools", s, n)
			}
		}
		if len(a.lat) != len(b.lat) {
			t.Fatalf("session %d: latency counts diverged: %d vs %d", s, len(a.lat), len(b.lat))
		}
		for i := range a.lat {
			if math.Float64bits(a.lat[i]) != math.Float64bits(b.lat[i]) {
				t.Fatalf("session %d: latency sample %d diverged", s, i)
			}
		}
	}
}

// fleetAccounting checks the conservation law every fleet run must obey:
// each offered arrival is placed or shed at the router; each placed
// arrival reaches exactly its node's admission; and each admitted
// request ends as completed, shed, a plan error, or a failed request —
// nothing is lost in routing.
func fleetAccounting(t *testing.T, res Result) {
	t.Helper()
	placed := 0
	for _, nr := range res.PerNode {
		placed += nr.Placements
		if nr.Placements != nr.Arrivals {
			t.Fatalf("node %s: %d placements but %d admitted arrivals", nr.Name, nr.Placements, nr.Arrivals)
		}
		if got := nr.Completed + nr.Shed + nr.PlanErrors + nr.FailedRequests; got != nr.Arrivals {
			t.Fatalf("node %s: %d admitted != %d completed + %d shed + %d plan errors + %d failed",
				nr.Name, nr.Arrivals, nr.Completed, nr.Shed, nr.PlanErrors, nr.FailedRequests)
		}
	}
	if placed+res.Shed != res.Injected {
		t.Fatalf("fleet: %d injected != %d placed + %d shed", res.Injected, placed, res.Shed)
	}
}

// TestFleetPolicies drives scenarios where the three policies provably
// differ: uniform nodes (spread balances, binpack concentrates), skewed
// node capacities (least-util loads the big node proportionally), a
// drained node (never placed on), and a suspect node (deprioritized
// while healthy capacity exists).
func TestFleetPolicies(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 120.0
		durationMS = 10000.0
		seed       = 9
	)
	run := func(opts Options, mutate func(*Fleet)) Result {
		t.Helper()
		opts.Runtime.WarmupMS = 0.2 * durationMS
		f, err := New(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(f)
		}
		runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
		res := f.Collect()
		fleetAccounting(t, res)
		return res
	}
	placements := func(res Result) []int {
		out := make([]int, len(res.PerNode))
		for i, nr := range res.PerNode {
			out[i] = nr.Placements
		}
		return out
	}

	t.Run("uniform", func(t *testing.T) {
		spread := run(Options{Nodes: 4, Policy: Spread}, nil)
		pack := run(Options{Nodes: 4, Policy: Binpack}, nil)
		lu := run(Options{Nodes: 4, Policy: LeastUtil}, nil)

		// Spread rotates: equal nodes end within one placement of each other.
		ps := placements(spread)
		min, max := ps[0], ps[0]
		for _, p := range ps[1:] {
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		if max-min > 1 {
			t.Fatalf("spread placements not balanced: %v", ps)
		}
		// Binpack concentrates: its busiest node carries strictly more than
		// spread's busiest, and its emptiest strictly less.
		pp := placements(pack)
		packMax, packMin := pp[0], pp[0]
		for _, p := range pp[1:] {
			if p > packMax {
				packMax = p
			}
			if p < packMin {
				packMin = p
			}
		}
		if packMax <= max || packMin >= min {
			t.Fatalf("binpack did not concentrate: binpack %v vs spread %v", pp, ps)
		}
		// All three produce different placement vectors on the same trace.
		pl := placements(lu)
		same := func(a, b []int) bool {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if same(ps, pp) || same(ps, pl) {
			t.Fatalf("policies indistinguishable: spread %v, binpack %v, least-util %v", ps, pp, pl)
		}
		// No routing losses on a healthy uniform fleet.
		if spread.Shed+pack.Shed+lu.Shed != 0 {
			t.Fatalf("healthy fleet shed requests: %d/%d/%d", spread.Shed, pack.Shed, lu.Shed)
		}
	})

	t.Run("skewed-capacity", func(t *testing.T) {
		// Node 0 gets double the power cap → double the boards. Least-util
		// weighs backlog per slot, so the big node must absorb strictly more
		// than any small node; spread ignores capacity and stays ±1.
		opts := Options{Nodes: 3, Policy: LeastUtil, NodeCapsW: []float64{1000, 500, 500}}
		lu := run(opts, nil)
		pl := placements(lu)
		if pl[0] <= pl[1] || pl[0] <= pl[2] {
			t.Fatalf("least-util ignored the double-capacity node: %v", pl)
		}
		opts.Policy = Spread
		sp := run(opts, nil)
		ps := placements(sp)
		for i := 1; i < len(ps); i++ {
			if d := ps[0] - ps[i]; d < -1 || d > 1 {
				t.Fatalf("spread should ignore capacity skew: %v", ps)
			}
		}
	})

	t.Run("drained-node", func(t *testing.T) {
		res := run(Options{Nodes: 3, Policy: Spread}, func(f *Fleet) {
			f.DrainNode(1)
			if f.ActiveNodes() != 2 {
				t.Fatalf("ActiveNodes = %d after draining 1 of 3", f.ActiveNodes())
			}
		})
		if got := res.PerNode[1].Placements; got != 0 {
			t.Fatalf("drained node received %d placements", got)
		}
		if res.PerNode[1].Health != NodeDraining {
			t.Fatalf("drained node reports %v", res.PerNode[1].Health)
		}
		if res.Shed != 0 {
			t.Fatalf("%d shed with two healthy nodes available", res.Shed)
		}
	})

	t.Run("suspect-node", func(t *testing.T) {
		// One of node 1's boards fails mid-run and never recovers. The first
		// task lost on it marks the board down, the node turns suspect, and
		// the router stops placing there while healthy nodes exist — so the
		// suspect node ends with strictly fewer placements than any healthy
		// node, where plain spread would have kept them within one.
		cfg := &fault.Config{Seed: seed, Script: []fault.Window{
			{Board: "n1/gpu0", Kind: fault.Failure, Start: 2000, End: 1e9},
		}}
		res := run(Options{Nodes: 3, Policy: Spread, Runtime: runtime.Options{Faults: cfg}}, nil)
		if res.PerNode[1].Health != NodeSuspect {
			t.Fatalf("faulted node reports %v, want suspect", res.PerNode[1].Health)
		}
		for _, i := range []int{0, 2} {
			if res.PerNode[1].Placements >= res.PerNode[i].Placements {
				t.Fatalf("suspect node kept pace with healthy node %d: %d vs %d",
					i, res.PerNode[1].Placements, res.PerNode[i].Placements)
			}
		}
	})
}

// TestFleetNodeDownRebalance scripts every board of one node to fail and
// stay failed: the router must observe the node-down transition, shift
// all subsequent placements to the survivors, and keep the accounting
// conservation law intact — every injected arrival is still placed or
// shed, and every placed arrival completes, sheds, or fails.
func TestFleetNodeDownRebalance(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 120.0
		durationMS = 16000.0
		seed       = 11
	)
	// Node 1's full board set under the default 500 W Heter-Poly plan.
	script := []fault.Window{{Board: "n1/gpu0", Kind: fault.Failure, Start: 3000, End: 1e9}}
	plan, err := cluster.Provision(cluster.Config{Arch: b.Arch, Setting: b.Setting, PowerCapW: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.NumFPGA; i++ {
		script = append(script, fault.Window{
			Board: "n1/fpga" + string(rune('0'+i)), Kind: fault.Failure, Start: 3000, End: 1e9,
		})
	}
	cfg := &fault.Config{Seed: seed, Script: script}

	f, err := New(b, Options{Nodes: 3, Policy: Spread,
		Runtime: runtime.Options{WarmupMS: 0.2 * durationMS, Faults: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
	res := f.Collect()

	fleetAccounting(t, res)
	if res.NodeDownEvents == 0 {
		t.Fatalf("router never observed the node-down transition: %s", res)
	}
	down := res.PerNode[1]
	if down.TaskFailures == 0 {
		t.Fatal("scripted failures never fired; the test lost its teeth")
	}
	// Rebalance: the survivors carried the load the dead node dropped.
	if down.Placements >= res.PerNode[0].Placements || down.Placements >= res.PerNode[2].Placements {
		t.Fatalf("dead node kept receiving placements: %v / %v / %v",
			res.PerNode[0].Placements, down.Placements, res.PerNode[2].Placements)
	}
	if res.PerNode[0].Completed == 0 || res.PerNode[2].Completed == 0 {
		t.Fatal("surviving nodes completed nothing")
	}
}

// TestFleetTargetNodesActuator: SetTargetNodes is the autoscaler's
// actuator — shrinking the target drains the top shards (zero new
// placements), growing it restores them, and draining every node makes
// the router shed rather than wedge.
func TestFleetTargetNodesActuator(t *testing.T) {
	b := asrBench(t)
	f, err := New(b, Options{Nodes: 4, Policy: Spread, Runtime: runtime.Options{WarmupMS: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTargetNodes(2)
	if f.ActiveNodes() != 2 {
		t.Fatalf("ActiveNodes = %d, want 2", f.ActiveNodes())
	}
	runtime.NewWorkload(3).InjectPoisson(f, 60, 0, 6000)
	res := f.Collect()
	fleetAccounting(t, res)
	if res.PerNode[2].Placements != 0 || res.PerNode[3].Placements != 0 {
		t.Fatalf("drained shards received placements: %v", res.PerNode)
	}
	if res.PerNode[0].Placements == 0 || res.PerNode[1].Placements == 0 {
		t.Fatalf("active shards received nothing: %v", res.PerNode)
	}
	f.SetTargetNodes(4)
	if f.ActiveNodes() != 4 {
		t.Fatalf("ActiveNodes = %d after scale-up, want 4", f.ActiveNodes())
	}

	// A fully-drained fleet sheds instead of wedging the drain loop.
	f2, err := New(b, Options{Nodes: 2, Policy: Binpack, Runtime: runtime.Options{WarmupMS: 0}})
	if err != nil {
		t.Fatal(err)
	}
	f2.SetTargetNodes(0)
	runtime.NewWorkload(4).InjectConstant(f2, 10, 0, 1000)
	res2 := f2.Collect()
	if res2.Shed != res2.Injected || res2.Injected == 0 {
		t.Fatalf("fully-drained fleet: %d injected, %d shed", res2.Injected, res2.Shed)
	}
}

// TestFleetTelemetryRollup: per-shard recorders stay independent while
// the rollup aggregates them into poly_fleet_* gauges whose allocatable
// sums match the nodes' declared envelopes, and node-health gauges track
// the router's belief.
func TestFleetTelemetryRollup(t *testing.T) {
	b := asrBench(t)
	f, err := New(b, Options{Nodes: 2, Policy: Spread, WithTelemetry: true,
		Runtime: runtime.Options{WarmupMS: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	runtime.NewWorkload(5).InjectPoisson(f, 60, 0, 6000)
	res := f.Collect()
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	for i := 0; i < f.Nodes(); i++ {
		if f.Recorder(i) == nil {
			t.Fatalf("shard %d has no recorder", i)
		}
		if got := f.Recorder(i).SpanTotal(); got != res.PerNode[i].Completed {
			t.Fatalf("shard %d recorder saw %d spans, node completed %d",
				i, got, res.PerNode[i].Completed)
		}
	}

	var buf strings.Builder
	if err := f.Rollup().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	reg := f.Rollup().Registry()
	if got := reg.Gauge("poly_fleet_nodes", "").Value(); got != 2 {
		t.Fatalf("poly_fleet_nodes = %v, want 2", got)
	}
	wantSlots := f.Node(0).Capacity().ComputeSlots + f.Node(1).Capacity().ComputeSlots
	if got := reg.Gauge("poly_fleet_allocatable", "", "resource", "compute_slots").Value(); got != wantSlots {
		t.Fatalf("poly_fleet_allocatable{compute_slots} = %v, want %v", got, wantSlots)
	}
	for _, node := range []string{"n0", "n1"} {
		if got := reg.Gauge("poly_fleet_node_health", "", "node", node, "state", "healthy").Value(); got != 1 {
			t.Fatalf("node %s not marked healthy in the rollup", node)
		}
	}
	for _, want := range []string{"poly_fleet_nodes", "poly_fleet_allocatable", "poly_fleet_node_health"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %s:\n%s", want, out)
		}
	}

	// Health updates flow through: drain n1 and re-collect the gauges.
	f.Rollup().SetNodeHealth("n1", "draining")
	if got := reg.Gauge("poly_fleet_node_health", "", "node", "n1", "state", "draining").Value(); got != 1 {
		t.Fatal("draining state not set")
	}
	if got := reg.Gauge("poly_fleet_node_health", "", "node", "n1", "state", "healthy").Value(); got != 0 {
		t.Fatal("healthy state not cleared")
	}

	// A shared Sink across shards is a configuration error, not a silent
	// corruption — on every construction path: any node count, next to
	// per-shard recorders, and through the shared-clock seam.
	shared := runtime.Options{Telemetry: f.Recorder(0)}
	for _, o := range []Options{
		{Nodes: 2, Runtime: shared},
		{Nodes: 1, Runtime: shared},
		{Nodes: 2, Runtime: shared, WithTelemetry: true},
	} {
		if _, err := New(b, o); err == nil {
			t.Fatalf("New accepted a shared Runtime.Telemetry sink (%d nodes, WithTelemetry %v)", o.Nodes, o.WithTelemetry)
		}
		if _, err := newFleet(b, o, sim.New()); err == nil {
			t.Fatalf("newFleet accepted a shared Runtime.Telemetry sink (%d nodes, WithTelemetry %v)", o.Nodes, o.WithTelemetry)
		}
	}
}

// TestPolicyParsing covers the CLI surface: every policy round-trips
// through its String name, aliases resolve, junk is rejected.
func TestPolicyParsing(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for alias, want := range map[string]Policy{
		"pack": Binpack, "rr": Spread, "roundrobin": Spread, "least-utilization": LeastUtil,
	} {
		got, err := ParsePolicy(alias)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

// TestLeastUtilizedTieBreaks pins the selection order: utilization
// first, in-flight second, slice order last — the determinism contract
// placement reproducibility rests on.
func TestLeastUtilizedTieBreaks(t *testing.T) {
	mk := func(backlog, slots, inflight int) candidate {
		return candidate{sig: Signals{
			Backlog: backlog, SlotsAllocatable: float64(slots), InFlight: inflight,
		}}
	}
	a, b, c := mk(4, 4, 3), mk(2, 4, 3), mk(2, 4, 2)
	if got := leastUtilized([]candidate{a, b, c}); got != c {
		t.Fatalf("want lowest in-flight among utilization ties, got %+v", got.sig)
	}
	// Pure tie: first in slice order wins.
	d := mk(2, 4, 2)
	if got := leastUtilized([]candidate{c, d}); got != c {
		t.Fatal("tie must keep slice order")
	}
	if got := leastUtilized([]candidate{d, c}); got != d {
		t.Fatal("tie must keep slice order (reversed)")
	}
	// Capacity skew: same backlog, more slots → less utilized.
	big := mk(4, 8, 9)
	if got := leastUtilized([]candidate{a, big}); got != big {
		t.Fatal("backlog-per-slot must weigh capacity")
	}
}

// BenchmarkFleetServe is the fleet-path cost benchmark CI gates: a
// 4-node fleet behind the least-util router serving the same per-node
// rate as BenchmarkServeSteadyState. The delta against 4× the steady-
// state cost is what routing, multi-shard assembly and the epoch drain
// add.
func BenchmarkFleetServe(b *testing.B) {
	bench := asrBench(b)
	const (
		rps        = 160.0
		durationMS = 5000.0
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(bench, Options{Nodes: 4, Policy: LeastUtil,
			Runtime: runtime.Options{WarmupMS: 1000}})
		if err != nil {
			b.Fatal(err)
		}
		runtime.NewWorkload(1).InjectConstant(f, rps, 0, sim.Time(durationMS))
		res := f.Collect()
		if res.PlanErrors != 0 || res.Shed != 0 {
			b.Fatalf("%d plan errors, %d shed", res.PlanErrors, res.Shed)
		}
	}
}
