package main

import (
	"math/rand"
	"time"

	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/runtime"
	"poly/internal/sched"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// Replay sizes: enough calls that each replay times a few hundred
// milliseconds of work.
const (
	replayHits    = 100_000
	replayMisses  = 3_000
	replayEvents  = 1_000_000
	replaySubmits = 20_000 // requests; each submits every kernel once
	replaySpans   = 50_000
	// missStates is how many drawn device states the miss and cold
	// replays cycle through.
	missStates = 256
	// submitBlock is how many requests' tasks are submitted between
	// drains. It is a fixed guess at the queue depth under load, not
	// a measured one.
	submitBlock = 8
)

// replayTimes is the host cost of single calls into each layer, in ns.
type replayTimes struct {
	hit, miss, cold float64 // sched.Schedule on the hit, miss and cold paths
	event           float64 // one sim.Simulator.Step at the workload's depth
	submit          float64 // one device Submit
	finish          float64 // one telemetry StartSpan+FinishSpan
}

// replay drives each layer's public functions on inputs shaped like the
// workload: device states from its provisioned node, with queue offsets
// drawn by the seed from those the traced run sampled, the simulator at
// its median queue depth, and spans at its arrival gap.
func replay(b runtime.Bench, w workload, shape nodeShape, offsets [][]float64, depth int, seed int64, tr *tracer, parent int) (replayTimes, error) {
	var rt replayTimes
	rng := rand.New(rand.NewSource(seed))
	devs := shape.states(rng, offsets)
	drawn := make([][]sched.DeviceState, missStates)
	for i := range drawn {
		drawn[i] = shape.states(rng, offsets)
	}
	bound := b.Prog.LatencyBoundMS

	planner := func(capacity int) (*sched.Scheduler, error) {
		s, err := sched.New(b.Prog, b.Spaces)
		if err != nil {
			return nil, err
		}
		s.SetLoadHint(w.loadRPS)
		if capacity >= 0 {
			s.SetPlanCacheCapacity(capacity)
		}
		return s, nil
	}
	// The hit path repeats one state; the miss and cold paths never do.
	hit, err := planner(-1)
	if err != nil {
		return rt, err
	}
	plan, err := hit.Schedule(devs, bound) // warms the cache
	if err != nil {
		return rt, err
	}
	id := tr.begin("replay.sched.hit", parent)
	if rt.hit, err = timePlans(hit, [][]sched.DeviceState{devs}, bound, replayHits, false); err != nil {
		return rt, err
	}
	tr.end(id)
	miss, err := planner(-1)
	if err != nil {
		return rt, err
	}
	id = tr.begin("replay.sched.miss", parent)
	if rt.miss, err = timePlans(miss, drawn, bound, replayMisses, true); err != nil {
		return rt, err
	}
	tr.end(id)
	cold, err := planner(0)
	if err != nil {
		return rt, err
	}
	id = tr.begin("replay.sched.cold", parent)
	if rt.cold, err = timePlans(cold, drawn, bound, replayMisses, true); err != nil {
		return rt, err
	}
	tr.end(id)

	id = tr.begin("replay.sim.step", parent)
	rt.event = timeEvents(max(depth, 1), replayEvents, rng)
	tr.end(id, "depth", depth)
	id = tr.begin("replay.device.submit", parent)
	rt.submit = timeSubmits(shape, plan, replaySubmits)
	tr.end(id)
	id = tr.begin("replay.telemetry.span", parent)
	rt.finish = timeSpans(plan, bound, 1000/w.loadRPS, replaySpans)
	tr.end(id)
	return rt, nil
}

// nodeShape is what the replays keep of the workload's provisioned node:
// its provisioning plan and its boards as the planner sees them, GPUs
// first, with zero queue offsets.
type nodeShape struct {
	plan   cluster.Plan
	boards []sched.DeviceState
}

func shapeOf(node *cluster.Node) nodeShape {
	sh := nodeShape{plan: node.Plan}
	for _, g := range node.GPUs {
		sh.boards = append(sh.boards, sched.DeviceState{Name: g.Name(), Class: device.GPU, FreqScale: g.FreqScale()})
	}
	for _, f := range node.FPGAs {
		sh.boards = append(sh.boards, sched.DeviceState{Name: f.Name(), Class: device.FPGA,
			LoadedImpl: f.Loaded(), ReconfigMS: node.Plan.Setting.FPGA.ReconfigMS, FreqScale: 1})
	}
	return sh
}

// states returns the boards with the queue offsets of one vector drawn
// from offsets (zero offsets when there are none).
func (sh nodeShape) states(rng *rand.Rand, offsets [][]float64) []sched.DeviceState {
	out := append([]sched.DeviceState(nil), sh.boards...)
	if len(offsets) == 0 {
		return out
	}
	v := offsets[rng.Intn(len(offsets))]
	for i := range out {
		out[i].FreeAtMS = v[i]
	}
	return out
}

// timePlans returns the mean ns of n Schedule calls, cycling through
// states. With churn the first board's queue offset also moves every
// call, so no state repeats.
func timePlans(s *sched.Scheduler, states [][]sched.DeviceState, bound float64, n int, churn bool) (float64, error) {
	work := make([][]sched.DeviceState, len(states))
	for i, st := range states {
		work[i] = append([]sched.DeviceState(nil), st...)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		devs := work[i%len(work)]
		if churn {
			devs[0].FreeAtMS = states[i%len(work)][0].FreeAtMS + float64(i)*1e-3
		}
		if _, err := s.Schedule(devs, bound); err != nil {
			return 0, err
		}
	}
	return nsPer(time.Since(t0), n), nil
}

// hopper keeps a simulator's heap at a fixed depth: every fired event
// schedules one successor.
type hopper struct {
	s      *sim.Simulator
	delays []sim.Time // power-of-two length
	i      int
}

func hop(now sim.Time, a any) {
	h := a.(*hopper)
	h.s.AtCall(now+h.delays[h.i&(len(h.delays)-1)], hop, h)
	h.i++
}

// timeEvents returns the mean ns of one Step with depth events pending.
func timeEvents(depth, n int, rng *rand.Rand) float64 {
	// meanDelayMS is a fixed guess at how far ahead events are
	// scheduled; the depth is measured.
	const meanDelayMS = 10
	h := &hopper{s: sim.New(), delays: make([]sim.Time, 4096)}
	for i := range h.delays {
		h.delays[i] = sim.Time(rng.ExpFloat64() * meanDelayMS)
	}
	for i := 0; i < depth; i++ {
		h.s.AtCall(sim.Time(rng.Float64()*meanDelayMS), hop, h)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.s.Step()
	}
	return nsPer(time.Since(t0), n)
}

// timeSubmits returns the mean ns of one device Submit, replaying the
// plan's tasks onto a fresh copy of the node whose FPGAs hold the same
// bitstreams. Only the Submit calls are timed, not the drains.
func timeSubmits(shape nodeShape, plan *sched.Plan, nReq int) float64 {
	s := sim.New()
	fresh := cluster.Build(s, shape.plan)
	boards := map[string]device.Accelerator{}
	gpus, fpgas := fresh.GPUs, fresh.FPGAs
	for _, d := range shape.boards {
		if d.Class == device.GPU {
			boards[d.Name], gpus = gpus[0], gpus[1:]
			continue
		}
		if d.LoadedImpl != "" {
			fpgas[0].Preload(d.LoadedImpl)
		}
		boards[d.Name], fpgas = fpgas[0], fpgas[1:]
	}
	s.Run()
	order := plan.Order()
	tasks := make([]device.Task, submitBlock*len(order))
	var elapsed time.Duration
	for done := 0; done < nReq; done += submitBlock {
		for i := range tasks {
			a := order[i%len(order)]
			tasks[i] = device.Task{Kernel: a.Kernel, ImplID: a.Impl.ID, LatencyMS: a.Impl.LatencyMS,
				IntervalMS: a.Impl.IntervalMS, Batch: a.Impl.Config.Batch, PowerW: a.Impl.PowerW, Device: a.Device}
		}
		t0 := time.Now()
		for i := range tasks {
			boards[tasks[i].Device].Submit(&tasks[i])
		}
		elapsed += time.Since(t0)
		s.Run()
	}
	return nsPer(elapsed, (nReq+submitBlock-1)/submitBlock*len(tasks))
}

// timeSpans returns the mean ns of one request's telemetry: StartSpan,
// one AddKernel per planned kernel, and FinishSpan, for requests gapMS
// apart.
func timeSpans(plan *sched.Plan, bound, gapMS float64, n int) float64 {
	rec := telemetry.New()
	rec.BeginSession("replay")
	order := plan.Order()
	for _, a := range order {
		rec.RegisterBoard(a.Device, a.Impl.Platform.String())
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		at := sim.Time(float64(i) * gapMS)
		sp := rec.StartSpan(at, bound)
		for _, a := range order {
			k := sp.AddKernel(a.Kernel, a.Device, a.Impl.ID, float64(at))
			k.StartMS = float64(at) + a.StartMS
			k.EndMS = float64(at) + a.EndMS
		}
		sp.LatencyMS = plan.MakespanMS
		sp.Measured = true
		rec.FinishSpan(sp, at+sim.Time(plan.MakespanMS))
	}
	return nsPer(time.Since(t0), n)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
