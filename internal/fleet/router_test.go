package fleet

import (
	"sort"
	"testing"

	"poly/internal/device"
	"poly/internal/fault"
	"poly/internal/runtime"
	"poly/internal/sim"
)

// faultedFleet builds an 8-node fleet under policy p whose scripted board
// failures turn some nodes suspect (two for good, one for a window), and
// injects Poisson arrivals up to untilMS.
func faultedFleet(t *testing.T, p Policy, untilMS float64) *Fleet {
	t.Helper()
	script := []fault.Window{
		{Board: "n1/gpu0", Kind: fault.Failure, Start: 300, End: 1e9},
		{Board: "n3/fpga2", Kind: fault.Failure, Start: 500, End: 2500},
		{Board: "n6/fpga0", Kind: fault.Failure, Start: 400, End: 1e9},
	}
	f, err := New(asrBench(t), Options{Nodes: 8, Policy: p, Runtime: runtime.Options{
		WarmupMS: 500, BatchWaitMS: 4, Faults: &fault.Config{Seed: 5, Script: script},
	}})
	if err != nil {
		t.Fatal(err)
	}
	runtime.NewWorkload(7).InjectPoisson(f, 600, 0, sim.Time(untilMS))
	return f
}

// routeEach routes f's injected arrivals one at a time, advancing every
// shard to each arrival's barrier the way drain does, and calls after
// once each arrival is placed or shed.
func routeEach(f *Fleet, after func()) {
	marks := make([]uint64, len(f.shards))
	for i, sh := range f.shards {
		marks[i] = sh.sim.SeqMark()
	}
	sort.SliceStable(f.arrivals, func(i, j int) bool { return f.arrivals[i] < f.arrivals[j] })
	for ; f.cursor < len(f.arrivals); f.cursor++ {
		t := f.arrivals[f.cursor]
		for i, sh := range f.shards {
			sh.sim.RunUntilBarrier(t, marks[i])
		}
		f.routeOne()
		after()
	}
}

// TestShardSignalsMatchRecount: after every routed arrival of a faulted
// run, under every policy, each shard's routing signals equal a recount
// over every board of its node — as many boards as its server tracks
// health for.
func TestShardSignalsMatchRecount(t *testing.T) {
	for _, p := range Policies() {
		t.Run(p.String(), func(t *testing.T) {
			f := faultedFleet(t, p, 4000)
			var checks, busy, suspect int
			routeEach(f, func() {
				for _, sh := range f.shards {
					var boards []device.Accelerator
					for _, g := range sh.node.GPUs {
						boards = append(boards, g)
					}
					for _, fp := range sh.node.FPGAs {
						boards = append(boards, fp)
					}
					healthy, susp, down := sh.srv.BoardHealthCounts()
					if len(boards) != healthy+susp+down {
						t.Fatalf("%s: %d boards on the node, %d tracked by its server",
							sh.name, len(boards), healthy+susp+down)
					}
					want := Signals{SlotsAllocatable: float64(len(boards)), InFlight: sh.srv.InFlight()}
					for _, b := range boards {
						q := b.QueueLen()
						want.Backlog += q
						if q > 0 {
							want.SlotsAllocated++
						}
					}
					if got := sh.signals(); got != want {
						t.Fatalf("arrival %d, %s: signals %+v, recount %+v", f.cursor, sh.name, got, want)
					}
					checks++
					if want.Backlog > 0 {
						busy++
					}
					if sh.health() == NodeSuspect {
						suspect++
					}
				}
			})
			res := f.Collect()
			fleetAccounting(t, res)
			if busy == 0 || suspect == 0 {
				t.Fatalf("the run lost its teeth: %d of %d checks saw a backlog, %d a suspect node",
					busy, checks, suspect)
			}
		})
	}
}

// TestPickAllocatesNothing: a routing decision on an 8-node fleet with
// healthy and suspect nodes reads every board in place and reuses its
// candidate buffers, under every policy.
func TestPickAllocatesNothing(t *testing.T) {
	for _, p := range Policies() {
		t.Run(p.String(), func(t *testing.T) {
			f := faultedFleet(t, p, 1500)
			routeEach(f, func() {})
			seen := map[NodeHealth]int{}
			for _, sh := range f.shards {
				seen[sh.health()]++
			}
			if seen[NodeHealthy] == 0 || seen[NodeSuspect] == 0 {
				t.Fatalf("want healthy and suspect nodes, got %v", seen)
			}
			if n := testing.AllocsPerRun(100, func() { f.pick() }); n != 0 {
				t.Fatalf("pick allocates %v times per call", n)
			}
		})
	}
}
