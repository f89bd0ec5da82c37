// Package runtime is Poly's serving loop: it connects a workload
// generator, the runtime kernel scheduler, and a simulated heterogeneous
// node (Fig. 2's system monitor → model → optimizer feedback cycle).
//
// Every arriving request is planned against the node's *current* device
// states — queue depths, resident FPGA bitstreams, DVFS points — so the
// allocation "is not fixed but determined by the Poly scheduler based on
// the latency constraint and system states" (Section VI-B). A periodic
// governor implements the power management the trace study describes:
// boosting clocks under load spikes and dropping GPUs to low-power DVFS
// states / loading low-power FPGA shells when the node idles.
package runtime

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/fault"
	"poly/internal/opencl"
	"poly/internal/sched"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// Planner is what the runtime needs from a planner. *sched.Scheduler
// (Heter-Poly) and *sched.StaticPlanner (the Homo-* baselines) both
// implement it; the dynamic scheduler's extra knobs (governor slack,
// batch hints, bitstream provisioning) are reached through Server.dyn.
type Planner interface {
	// Schedule plans one request (or one admission group) over the
	// devices; the returned plan is shared and must not be written.
	Schedule(devices []sched.DeviceState, boundMS float64) (*sched.Plan, error)
	// PlaceKernel re-places one kernel after a task failure.
	PlaceKernel(kernel string, devices []sched.DeviceState) (*sched.Assignment, error)
	// SetHealthEpoch folds the board-health generation into the plan
	// cache key, so a health transition invalidates every memoized plan.
	SetHealthEpoch(epoch uint64)
	// PlanCacheStats reports the plan cache's cumulative hits and misses.
	PlanCacheStats() (hits, misses int)
}

var (
	_ Planner = (*sched.Scheduler)(nil)
	_ Planner = (*sched.StaticPlanner)(nil)
)

// Options configures a server. NewServer rejects a NaN, infinite or
// negative value in any of its numeric fields.
type Options struct {
	// BoundMS is the QoS tail-latency bound (program default if zero).
	BoundMS float64
	// WarmupMS excludes an initial window from the latency statistics:
	// first-touch FPGA reconfigurations and cold caches are deployment
	// one-offs, not steady-state QoS. Energy/power accounting still
	// covers the whole run.
	WarmupMS float64
	// Governor enables dynamic power management. The Homo-* baselines run
	// with it off ("configured with static scheduling scheme", §VI-C).
	Governor bool
	// Telemetry, when non-nil, receives runtime events: per-request
	// spans, governor transitions, device activity, and power samples.
	// Nil disables the whole layer (the serving hot path then pays only
	// nil-checks).
	Telemetry telemetry.Sink
	// Faults, when non-nil and enabled, attaches a deterministic fault
	// injector to every board and arms the runtime's graceful-degradation
	// machinery (health monitor, retries, admission shedding). Nil or a
	// disabled config leaves the serving path bit-identical to a build
	// without the fault layer.
	Faults *fault.Config
	// BatchWaitMS, when positive, enables the admission-side
	// cross-request batcher (batcher.go): arriving requests are staged
	// into a group for up to this many milliseconds — budgeted down by
	// each request's remaining latency slack — and the group is planned
	// and submitted as one unit so same-kernel GPU work shares launches.
	// Zero (the default) disables staging entirely; the serving path is
	// then bit-identical to a build without the batcher.
	BatchWaitMS float64
	// BatchCap bounds the staged group size. Zero means the planner's
	// widest GPU batch capacity — holding more requests than any launch
	// can carry buys nothing. Ignored while BatchWaitMS is zero.
	BatchCap int
}

const (
	// defaultRestoreSlack is the planning headroom the governor restores
	// in calm windows (mirrors the scheduler's default).
	defaultRestoreSlack = 0.6
	// governorPeriodMS is the monitor/optimizer cycle.
	governorPeriodMS = 500.0
)

// Server drives one application on one node.
type Server struct {
	sim     *sim.Simulator
	node    *cluster.Node
	prog    *opencl.Program
	planner Planner
	// dyn is the planner as the dynamic scheduler, resolved once; nil for
	// the Homo-* baselines, whose static planners have no knobs to turn.
	dyn  *sched.Scheduler
	opts Options

	// boards is the node's accelerators in node order (GPUs, then FPGAs),
	// the order deviceStates presents them to the planner; byName resolves
	// the board names that plans and tasks carry.
	boards []board
	byName map[string]*board

	latencies  sim.Sample
	windowLat  sim.Sample
	lastWindow sim.Sample
	powerTS    sim.TimeSeries
	arrivals   int
	completed  int
	measured   int
	violations int
	planErrors int
	inFlight   int

	windowArrivals  int
	calmWindows     int
	lowPowerMode    bool
	pendingArrivals int
	gpuTasks        int
	fpgaTasks       int
	// devScratch is the reusable device-state snapshot buffer: admit
	// runs once per request, and both planners copy the slice before
	// retaining anything, so the snapshot never needs to survive a call.
	devScratch []sched.DeviceState

	// pi is the program interned to dense kernel indices (built once in
	// NewServer); reqs/tasks/props are the free lists the serving loop
	// recycles request, task, and edge-propagation objects through.
	// Recycling is safe because every object counts its outstanding
	// callbacks (request.refs) or is released exactly at its single
	// callback (tasks, edge props).
	pi    progIndex
	reqs  pool[request]
	tasks pool[device.Task]
	props pool[edgeProp]

	// tel is the telemetry sink (nil = disabled). govMode tracks the
	// governor's operating mode for transition events; lastCacheHits
	// lets admit turn the planner's cumulative cache counters into
	// per-plan hit/miss deltas.
	tel           telemetry.Sink
	govMode       string
	lastCacheHits int

	// injector is the fault layer (nil = faults disabled; every fault
	// path below is gated on it). healthEpoch is the generation counter
	// that keys plan-cache invalidation on board-health transitions.
	injector    *fault.Injector
	healthEpoch uint64

	shed            int
	retries         int
	taskFailures    int
	failedRequests  int
	boardDownEvents int

	// Admission-batcher state (batcher.go). batching latches
	// Options.BatchWaitMS > 0 at construction; with it false every field
	// below stays zero and the serving path never touches them.
	batching      bool
	batchCap      int
	batchArrivals []sim.Time
	batchDeadline sim.Time
	batchGen      uint64
	timers        pool[batchTimer]
	// lastPlanMS is the most recent successful plan's makespan — the
	// batcher's service-time predictor for the slack-budget rule.
	// batchCoexec is the staging gate: true while the live plan mix
	// routes at least one kernel through a batched GPU implementation
	// (see planCoexecutable); arrivals bypass staging while it is false.
	lastPlanMS  float64
	batchCoexec bool

	batchGroups     int
	batchedRequests int
	batchDisbands   int
	batchHoldSumMS  float64
	maxBatchSize    int
}

// board is the runtime's record of one accelerator: the device (exactly
// one of gpu and fpga is set), the runtime's belief about its health (see
// health.go) and, for an FPGA, intended: the bitstream the board is
// committed to by admitted (possibly not-yet-submitted) plans. Planning
// against the intended residency instead of the instantaneous one
// prevents two overlapping requests from claiming the same blank board
// for different kernels and ping-ponging reconfigurations forever.
type board struct {
	name     string
	accel    device.Accelerator
	gpu      *device.GPUDevice
	fpga     *device.FPGADevice
	health   boardHealth
	intended string
}

// NewServer wires an application and planner onto a node.
func NewServer(node *cluster.Node, prog *opencl.Program, planner Planner, opts Options) (*Server, error) {
	if node == nil || prog == nil || planner == nil {
		return nil, fmt.Errorf("runtime: nil node, program, or planner")
	}
	// Degenerate options would serve without meaning: a NaN bound counts
	// no violation, a NaN warmup measures nothing. The bound is checked
	// after the program's default replaces a zero one.
	if opts.BoundMS == 0 {
		opts.BoundMS = prog.LatencyBoundMS
	}
	if !(opts.BoundMS > 0) || math.IsInf(opts.BoundMS, 1) {
		return nil, fmt.Errorf("runtime: latency bound %v ms (BoundMS, or program %q's when 0) must be finite and > 0", opts.BoundMS, prog.Name)
	}
	for _, v := range []float64{opts.WarmupMS, opts.BatchWaitMS, float64(opts.BatchCap)} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("runtime: WarmupMS %v, BatchWaitMS %v, BatchCap %d: each must be finite and >= 0",
				opts.WarmupMS, opts.BatchWaitMS, opts.BatchCap)
		}
	}
	sv := &Server{
		sim:     node.Sim,
		node:    node,
		prog:    prog,
		planner: planner,
		opts:    opts,
		tel:     opts.Telemetry,
		govMode: "nominal",
	}
	sv.dyn, _ = planner.(*sched.Scheduler)
	for _, g := range node.GPUs {
		sv.boards = append(sv.boards, board{name: g.Name(), accel: g, gpu: g})
	}
	for _, f := range node.FPGAs {
		sv.boards = append(sv.boards, board{name: f.Name(), accel: f, fpga: f})
	}
	if len(sv.boards) == 0 {
		return nil, fmt.Errorf("runtime: node has no accelerators")
	}
	sv.byName = make(map[string]*board, len(sv.boards))
	for i := range sv.boards {
		sv.byName[sv.boards[i].name] = &sv.boards[i]
	}
	sv.buildProgIndex()
	if opts.BatchWaitMS > 0 {
		sv.batching = true
		// Optimistic until the first plan proves otherwise: the first
		// group's plan settles the gate.
		sv.batchCoexec = true
		sv.batchCap = opts.BatchCap
		if sv.batchCap <= 0 {
			sv.batchCap = defaultBatchCap
			if sv.dyn != nil {
				sv.batchCap = sv.dyn.MaxGPUBatch()
			}
		}
	}
	if opts.Faults != nil && opts.Faults.Enabled() {
		names := make([]string, len(sv.boards))
		for i := range sv.boards {
			names[i] = sv.boards[i].name
		}
		sv.injector = fault.New(*opts.Faults, names)
		for _, g := range node.GPUs {
			g.SetFaultHook(sv.injector)
		}
		for _, f := range node.FPGAs {
			f.SetFaultHook(sv.injector)
		}
	}
	if sv.tel != nil {
		sv.tel.BeginSession(fmt.Sprintf("%s (bound %.0f ms)", prog.Name, opts.BoundMS))
		// Resource accounting: declare the node and per-board allocatable
		// envelopes, then attach the boards' transition observers and seed
		// the gauges with the current (idle) state.
		capN := node.Capacity()
		sv.tel.RegisterNodeResource(telemetry.ResComputeSlots, capN.ComputeSlots)
		sv.tel.RegisterNodeResource(telemetry.ResPowerW, capN.PowerW)
		sv.tel.RegisterNodeResource(telemetry.ResFPGARegions, capN.FPGARegions)
		capG := node.GPUBoardCapacity()
		for _, g := range node.GPUs {
			sv.tel.RegisterBoard(g.Name(), "GPU")
			sv.tel.RegisterBoardResource(g.Name(), telemetry.ResComputeSlots, capG.ComputeSlots)
			sv.tel.RegisterBoardResource(g.Name(), telemetry.ResPowerW, capG.PowerW)
			g.SetObserver(sv.tel)
			g.SetResourceObserver(sv.tel)
			sv.tel.PowerChanged(g.Name(), g.PowerW(), sv.sim.Now())
		}
		capF := node.FPGABoardCapacity()
		for _, f := range node.FPGAs {
			sv.tel.RegisterBoard(f.Name(), "FPGA")
			sv.tel.RegisterBoardResource(f.Name(), telemetry.ResComputeSlots, capF.ComputeSlots)
			sv.tel.RegisterBoardResource(f.Name(), telemetry.ResPowerW, capF.PowerW)
			sv.tel.RegisterBoardResource(f.Name(), telemetry.ResFPGARegions, capF.FPGARegions)
			f.SetObserver(sv.tel)
			f.SetResourceObserver(sv.tel)
			sv.tel.PowerChanged(f.Name(), f.PowerW(), sv.sim.Now())
			if l := f.Loaded(); l != "" {
				sv.tel.BitstreamResident(f.Name(), l, sv.sim.Now())
			}
		}
	}
	w := node.PowerW()
	if sv.tel != nil {
		sv.tel.PowerSample(sv.sim.Now(), w)
	}
	sv.powerTS.Add(sv.sim.Now(), w)
	if opts.Governor {
		sv.sim.AfterCall(sim.Duration(governorPeriodMS), fireGovernorTick, sv)
	}
	return sv, nil
}

// progIndex is the program interned to dense kernel indices, built once
// per server so the per-request DAG bookkeeping is flat-slice arithmetic
// instead of string-keyed maps: predCount is the waiting-counter template
// each admit copies, sources lists the zero-predecessor kernels in
// declaration order, and succs carries each kernel's out-edges with the
// PCIe transfer cost precomputed from the edge's byte volume.
type progIndex struct {
	names     []string
	predCount []int32
	sources   []int32
	succs     [][]succEdge
}

// succEdge is one DAG out-edge in dense-index form.
type succEdge struct {
	to         int32
	transferMS float64
}

func (sv *Server) buildProgIndex() {
	ks := sv.prog.Kernels()
	pi := &sv.pi
	pi.names = make([]string, len(ks))
	kidx := make(map[string]int32, len(ks))
	for i, k := range ks {
		pi.names[i] = k.Name
		kidx[k.Name] = int32(i)
	}
	pi.predCount = make([]int32, len(ks))
	pi.succs = make([][]succEdge, len(ks))
	for i, k := range ks {
		pi.predCount[i] = int32(len(sv.prog.Preds(k.Name)))
		if pi.predCount[i] == 0 {
			pi.sources = append(pi.sources, int32(i))
		}
		for _, e := range sv.prog.Succs(k.Name) {
			pi.succs[i] = append(pi.succs[i], succEdge{
				to:         kidx[e.To],
				transferMS: sv.node.PCIe.TransferMS(e.Bytes),
			})
		}
	}
}

// setGovernorMode tracks the governor's operating mode and emits a
// transition event (with its cause) when it changes.
func (sv *Server) setGovernorMode(to, cause string) {
	if sv.govMode == to {
		return
	}
	if sv.tel != nil {
		sv.tel.GovernorTransition(sv.sim.Now(), sv.govMode, to, cause)
	}
	sv.govMode = to
	// A mode transition changes the plan mix the staging gate was decided
	// under — let the next group re-decide it.
	sv.reprobeBatching()
}

// Bound returns the effective latency bound.
func (sv *Server) Bound() float64 { return sv.opts.BoundMS }

// InFlight returns the number of admitted, unfinished requests — a
// routing signal the fleet's placement policies read.
func (sv *Server) InFlight() int { return sv.inFlight }

// deviceStates snapshots the node for the scheduler (Eq. 4 inputs), in
// board order. The returned slice is scratch reused across admits.
func (sv *Server) deviceStates() []sched.DeviceState {
	now := sv.sim.Now()
	// Each board's state is written into its scratch slot field by field,
	// every exported field each time: the slot may hold another board's
	// state from an earlier call.
	out := slices.Grow(sv.devScratch[:0], len(sv.boards))
	for i := range sv.boards {
		b := &sv.boards[i]
		// Down boards leave the EST tables entirely; suspect boards carry
		// a fixed availability penalty (see health.go). Every board stays
		// healthy without an injector.
		if b.health.state == healthDown {
			continue
		}
		out = out[:len(out)+1]
		ds := &out[len(out)-1]
		ds.Name = b.name
		if g := b.gpu; g != nil {
			ds.Class = device.GPU
			ds.FreeAtMS = float64(g.NextFreeAt() - now)
			ds.LoadedImpl = ""
			ds.ReconfigMS = 0
			ds.FreqScale = g.FreqScale()
		} else {
			ds.Class = device.FPGA
			ds.FreeAtMS = float64(b.fpga.NextFreeAt() - now)
			ds.LoadedImpl = b.residency()
			ds.ReconfigMS = sv.node.Plan.Setting.FPGA.ReconfigMS
			ds.FreqScale = 1
		}
		if b.health.state == healthSuspect {
			ds.FreeAtMS += suspectPenaltyMS
		}
	}
	sv.devScratch = out
	return out
}

// residency is the bitstream an FPGA board will hold once admitted work
// lands: the intended one, else the one loaded now.
func (b *board) residency() string {
	if b.intended != "" {
		return b.intended
	}
	return b.fpga.Loaded()
}

// Inject schedules one request arrival at the given absolute time.
func (sv *Server) Inject(at sim.Time) {
	sv.pendingArrivals++
	sv.sim.AtCall(at, fireAdmit, sv)
}

// RouteArrival admits one arrival at the current simulator instant — the
// fleet router's handoff point. It is Inject(now) with the event already
// fired: the router's own arrival event picked this shard, so the admit
// path runs inline. Equivalent to the Inject path event-for-event, which
// is what keeps a 1-node fleet bit-identical to direct serving.
func (sv *Server) RouteArrival() {
	sv.pendingArrivals++
	fireAdmit(sv.sim.Now(), sv)
}

// BoardHealthCounts reports the runtime's current belief about its
// boards — the signal a fleet generalizes into node-level health. With
// no fault layer attached every board reads healthy.
func (sv *Server) BoardHealthCounts() (healthy, suspect, down int) {
	for i := range sv.boards {
		switch sv.boards[i].health.state {
		case healthSuspect:
			suspect++
		case healthDown:
			down++
		default:
			healthy++
		}
	}
	return healthy, suspect, down
}

// fireAdmit routes an arrival: straight to admission, or — with the
// batcher enabled and its gate open — into the staging stage. (The wake
// in arrive cannot open a closed gate: entering low power already
// reopened it, and no group plan can close it before the next arrival.)
func fireAdmit(_ sim.Time, a any) {
	sv := a.(*Server)
	sv.arrive()
	if sv.batching && sv.batchCoexec {
		sv.stage()
		return
	}
	sv.admit([]sim.Time{sv.sim.Now()}, "")
}

// arrive does an arrival's accounting at its true arrival instant: the
// arrival counts the governor's load estimate reads, and the wake from
// low power — a request must not be served at the parked operating point
// until the next governor tick.
func (sv *Server) arrive() {
	sv.arrivals++
	sv.windowArrivals++
	if sv.lowPowerMode {
		for _, g := range sv.node.GPUs {
			g.SetDVFS(1)
		}
		sv.lowPowerMode = false
		sv.setGovernorMode("nominal", "arrival_wake")
	}
}

// request tracks one in-flight request's DAG progress. Requests are
// pooled: admit pulls one from the server's free list and maybeRelease
// returns it once the request is done AND refs — the count of scheduled
// callbacks (submitted tasks, in-flight edge propagations) that still
// hold the pointer — drains to zero. Stragglers from a dropped request
// therefore keep it out of the pool until they land.
type request struct {
	sv        *Server
	arrivedAt sim.Time
	plan      *sched.Plan
	// assign maps dense kernel index → effective assignment. Entries
	// start out aliasing the shared immutable plan and are repointed to
	// request-private Assignments on failure retries (the plan itself is
	// never written).
	assign []*sched.Assignment
	// waiting counts unfinished predecessors per kernel index; admit
	// copies it from the progIndex template.
	waiting   []int32
	remaining int
	// windowMS is the per-kernel batching budget: the plan's remaining
	// latency slack split across its batched (GPU) stages, so waiting to
	// fill batches can never by itself break the bound.
	windowMS float64
	// span is the request's telemetry record (nil when disabled); ks is
	// the per-kernel span, indexed like assign.
	span *telemetry.Span
	ks   []*telemetry.KernelSpan
	// refs counts outstanding callbacks holding this request.
	refs int
	// retries counts kernel re-placements after task failures; done
	// latches completion so late callbacks from an already-dropped
	// request (tasks still draining on other boards) can't double-count.
	retries int
	done    bool
}

// edgeProp is the pooled argument for one DAG edge's delayed arrival at
// its successor kernel.
type edgeProp struct {
	r    *request
	succ int32
}

// poolChunk is how many objects one free-list refill allocates at once.
// The pools only ever grow to the run's peak concurrency, so chunking
// turns that growth from one allocation per object into one per chunk
// without retaining more than a chunk's worth of slack.
const poolChunk = 64

// pool is a chunked free list of T. The serving loop is single-threaded,
// so get and put need no locking.
type pool[T any] struct{ free []*T }

func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	chunk := make([]T, poolChunk)
	for i := 1; i < poolChunk; i++ {
		p.free = append(p.free, &chunk[i])
	}
	return &chunk[0]
}

func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

// releaseTask recycles a task whose single lifecycle callback has fired;
// the device layer never touches a task after done/fail.
func (sv *Server) releaseTask(t *device.Task) {
	*t = device.Task{}
	sv.tasks.put(t)
}

// maybeRelease recycles the request once it is finished and no scheduled
// callback still references it. The sv==nil check makes it idempotent.
func (r *request) maybeRelease() {
	sv := r.sv
	if sv == nil || !r.done || r.refs != 0 {
		return
	}
	r.sv = nil
	r.plan = nil
	r.span = nil
	for i := range r.assign {
		r.assign[i] = nil
	}
	for i := range r.ks {
		r.ks[i] = nil
	}
	sv.reqs.put(r)
}

// admit plans arr — one arrival, or a flushed admission group when
// reason ("full" or "maxwait") is non-empty — against the node's current
// state, and starts every member at the current instant on the one plan.
// Each member keeps its true arrival instant, so its latency includes any
// time it was staged. A failed plan, or a plan too close to the bound on
// a degraded node, fails every member alike.
//
// A group is planned with its size as the scheduler's batch hint: batched
// GPU variants are guaranteed n requests per launch, so the plan prices
// launch sharing as certainty instead of a load-estimate gamble. The hint
// is reset at once — it is part of the plan-cache key, and single
// arrivals must not alias group plans. The members share the sealed plan
// (retries rebase into request-private slots) and submit back to back,
// so their same-kernel GPU tasks coalesce into shared launches.
func (sv *Server) admit(arr []sim.Time, reason string) {
	n := len(arr)
	group := reason != ""
	now := sv.sim.Now()
	sv.pendingArrivals -= n
	if group && sv.dyn != nil {
		sv.dyn.SetBatchSize(n)
	}
	// Admission control under degradation: when boards are down or
	// suspect, feasible capacity may not meet the bound. Shedding the
	// request at admission is a fast rejection the client can retry
	// elsewhere; admitting it would turn one board's fault into tail
	// violations for the whole population.
	degraded := sv.injector != nil && sv.degraded()
	plan, err := sv.planner.Schedule(sv.deviceStates(), sv.opts.BoundMS)
	if group && sv.dyn != nil {
		sv.dyn.SetBatchSize(1)
	}
	if err != nil || degraded && plan.MakespanMS > shedHeadroom*sv.opts.BoundMS {
		for range arr {
			if degraded {
				sv.shed++
				if sv.tel != nil {
					sv.tel.RequestShed(now)
				}
				continue
			}
			sv.planErrors++
			if sv.tel != nil {
				sv.tel.PlanError(now)
			}
		}
		return
	}
	if sv.batching {
		sv.notePlan(plan, n)
	}
	var holdSumMS float64
	if group {
		holdSumMS = holdSum(arr, now)
		sv.batchGroups++
		sv.batchedRequests += n
		sv.batchHoldSumMS += holdSumMS
		sv.maxBatchSize = max(sv.maxBatchSize, n)
	}
	var hit bool
	if sv.tel != nil {
		hits, _ := sv.planner.PlanCacheStats()
		hit = hits > sv.lastCacheHits
		sv.lastCacheHits = hits
		sv.tel.PlanUpdate(hit, plan.EnergySwaps)
		if group {
			sv.tel.BatchFlush(now, n, holdSumMS/float64(n), reason)
		}
	}
	for _, at := range arr {
		hold := float64(now - at)
		// Batches form from the queue: arrivals during a running launch
		// coalesce into the next one, which self-balances with load. A
		// tiny in-queue window merges near-simultaneous arrivals; a group
		// member already spent its hold in staging and keeps only the
		// rest, so the two stages never wait the same budget twice.
		win := admitWindowMS
		if group {
			win = max(0, admitWindowMS-hold)
		}
		var span *telemetry.Span
		if sv.tel != nil {
			span = sv.tel.StartSpan(at, sv.opts.BoundMS)
			span.CacheHit = hit
			span.PlanMakespanMS = plan.MakespanMS
			span.EnergySwaps = plan.EnergySwaps
			span.HoldMS = hold
			if group {
				span.Batched = true
				span.BatchSize = n
			}
		}
		sv.startRequest(at, plan, span, win)
	}
}

// startRequest builds the pooled request for an admitted plan and
// submits its source kernels. arrivedAt is the request's true arrival
// instant; windowMS is its per-kernel in-queue accumulation window.
func (sv *Server) startRequest(arrivedAt sim.Time, plan *sched.Plan, span *telemetry.Span, windowMS float64) {
	sv.inFlight++
	pi := &sv.pi
	nk := len(pi.names)
	r := sv.reqs.get()
	r.sv = sv
	r.arrivedAt = arrivedAt
	r.plan = plan
	r.span = span
	r.remaining = len(plan.Assignments)
	r.refs = 0
	r.retries = 0
	r.done = false
	r.windowMS = windowMS
	if cap(r.assign) < nk {
		r.assign = make([]*sched.Assignment, nk)
		r.ks = make([]*telemetry.KernelSpan, nk)
	} else {
		// maybeRelease cleared the recycled slots.
		r.assign = r.assign[:nk]
		r.ks = r.ks[:nk]
	}
	r.waiting = append(r.waiting[:0], pi.predCount...)
	// The plan and the server index kernels alike, in declaration order.
	for ki := range plan.Assignments {
		r.assign[ki] = &plan.Assignments[ki]
	}
	// Intended FPGA residency is recorded in planned start order: when a
	// plan places two kernels on the same board, the later one's
	// bitstream is the residency the board ends up with.
	for _, a := range plan.Order() {
		sv.intend(a)
	}
	// Submit sources in declaration order for determinism.
	for _, ki := range pi.sources {
		r.submit(ki)
	}
	r.maybeRelease()
}

// intend records an FPGA assignment's bitstream as its board's intended
// residency. An unknown device is left to submit, which drops the request.
func (sv *Server) intend(a *sched.Assignment) {
	if a.Impl.Platform != device.FPGA {
		return
	}
	if b := sv.byName[a.Device]; b != nil {
		b.intended = a.Impl.ID
	}
}

// submit dispatches one kernel's task to its planned device. The task is
// pooled and carries the request as its Owner plus the per-task context
// (device, kernel index, predicted finish) the lifecycle callbacks need —
// no closures are allocated on this path.
func (r *request) submit(ki int32) {
	sv := r.sv
	a := r.assign[ki]
	b := sv.byName[a.Device]
	if b == nil {
		// The planner referenced an unknown device — drop the request
		// rather than corrupt accounting.
		sv.planErrors++
		if sv.tel != nil {
			sv.tel.PlanError(sv.sim.Now())
		}
		r.finishRequest(false)
		return
	}
	if b.gpu != nil {
		sv.gpuTasks++
	} else {
		sv.fpgaTasks++
	}
	// Pooled tasks come back zeroed (releaseTask), so filling the fields
	// in place builds the task without copying a whole literal.
	t := sv.tasks.get()
	t.Kernel = a.Kernel
	t.ImplID = a.Impl.ID
	t.LatencyMS = a.Impl.LatencyMS
	t.IntervalMS = a.Impl.IntervalMS
	t.Batch = a.Impl.Config.Batch
	t.PowerW = a.Impl.PowerW
	t.Owner = r
	t.Device = a.Device
	t.KernelIdx = ki
	t.PredictedEndMS = a.EndMS
	if r.span != nil {
		r.ks[ki] = r.span.AddKernel(a.Kernel, a.Device, sched.ImplID(a.Impl), float64(sv.sim.Now()))
	}
	if t.Batch > 1 {
		t.WindowMS = r.windowMS
	}
	r.refs++
	b.accel.Submit(t)
}

// TaskStarted implements device.TaskOwner: telemetry splits queue time
// from service time per kernel.
func (r *request) TaskStarted(t *device.Task, at sim.Time) {
	if ks := r.ks[t.KernelIdx]; ks != nil {
		ks.StartMS = float64(at)
	}
}

// TaskDone implements device.TaskOwner: feed the fault monitor, stamp
// telemetry, recycle the task, then propagate DAG completion — the same
// order the per-task closure stack used.
func (r *request) TaskDone(t *device.Task, at sim.Time) {
	sv := r.sv
	if sv.injector != nil {
		sv.observeCompletion(sv.byName[t.Device], t.PredictedEndMS, float64(at-r.arrivedAt), at)
	}
	ki := t.KernelIdx
	if ks := r.ks[ki]; ks != nil {
		ks.EndMS = float64(at)
	}
	sv.releaseTask(t)
	r.refs--
	r.kernelDone(ki, at)
	r.maybeRelease()
}

// TaskFailed implements device.TaskOwner: the board lost this kernel.
func (r *request) TaskFailed(t *device.Task, at sim.Time) {
	ki, board := t.KernelIdx, t.Device
	r.sv.releaseTask(t)
	r.refs--
	r.kernelFailed(ki, board, at)
	r.maybeRelease()
}

// kernelDone propagates completion to the successors.
func (r *request) kernelDone(ki int32, at sim.Time) {
	sv := r.sv
	if r.done {
		return // request already dropped; stragglers don't propagate
	}
	pa := r.assign[ki]
	for i := range sv.pi.succs[ki] {
		e := &sv.pi.succs[ki][i]
		delay := sim.Duration(0)
		if ca := r.assign[e.to]; pa != nil && ca != nil && pa.Device != ca.Device {
			delay = sim.Duration(e.transferMS)
			if r.span != nil && delay > 0 {
				r.span.AddTransfer(float64(at), float64(at)+e.transferMS)
			}
		}
		p := sv.props.get()
		p.r, p.succ = r, e.to
		r.refs++
		sv.sim.AfterCall(delay, fireEdgeArrive, p)
	}
	r.remaining--
	if r.remaining == 0 {
		r.finishRequest(true)
	}
}

// fireEdgeArrive delivers one DAG edge at its successor after the PCIe
// transfer delay. Deliberately no done-check: edges scheduled before a
// request was dropped still decrement and may submit their successor,
// exactly as the closure-based path did.
func fireEdgeArrive(_ sim.Time, a any) {
	p := a.(*edgeProp)
	r, succ := p.r, p.succ
	p.r = nil
	sv := r.sv
	sv.props.put(p)
	r.refs--
	r.waiting[succ]--
	if r.waiting[succ] == 0 {
		r.submit(succ)
	}
	r.maybeRelease()
}

// finishRequest records latency and QoS accounting.
func (r *request) finishRequest(ok bool) {
	sv := r.sv
	if r.done {
		return
	}
	r.done = true
	sv.inFlight--
	if !ok {
		if r.span != nil {
			r.span.Dropped = true
			sv.tel.FinishSpan(r.span, sv.sim.Now())
		}
		return
	}
	sv.completed++
	lat := float64(sv.sim.Now() - r.arrivedAt)
	measured := float64(r.arrivedAt) >= sv.opts.WarmupMS
	if measured {
		sv.latencies.Add(lat)
		sv.windowLat.Add(lat)
		sv.measured++
		if lat > sv.opts.BoundMS {
			sv.violations++
		}
	}
	if r.span != nil {
		// Warmup requests still produce spans (flagged unmeasured) so a
		// trace shows the cold start, but they stay out of the QoS
		// statistics exactly as they do in Result.
		r.span.LatencyMS = lat
		r.span.Measured = measured
		r.span.Violation = lat > sv.opts.BoundMS
		sv.tel.FinishSpan(r.span, sv.sim.Now())
	}
}

func fireGovernorTick(_ sim.Time, a any) { a.(*Server).governorTick() }

// governorTick is the monitor→model→optimizer cycle: it samples power,
// estimates the window load, and actuates DVFS / low-power shells.
func (sv *Server) governorTick() {
	if !sv.opts.Governor {
		return // switched off mid-run: stop rescheduling
	}
	w := sv.node.PowerW()
	sv.powerTS.Add(sv.sim.Now(), w)
	if sv.tel != nil {
		sv.tel.PowerSample(sv.sim.Now(), w)
	}

	var queued int
	for i := range sv.boards {
		queued += sv.boards[i].accel.QueueLen()
	}
	switch {
	case queued == 0 && sv.inFlight == 0 && sv.windowArrivals == 0 && len(sv.batchArrivals) == 0:
		// (Staged admission-batch members count as load: parking the node
		// with a group mid-hold would serve the flush at low-power clocks.)
		// Node idle: drop GPUs to the deepest DVFS state and park FPGAs
		// in the low-power shell (§VI-C power-savings discussion).
		for _, g := range sv.node.GPUs {
			g.SetDVFS(2)
		}
		for _, f := range sv.node.FPGAs {
			f.EnterLowPower()
		}
		sv.lowPowerMode = true
		sv.setGovernorMode("lowpower", "idle")
	case queued > len(sv.boards) || sv.latencyPressure():
		cause := "latency_pressure"
		if queued > len(sv.boards) {
			cause = "queue_depth"
		}
		sv.setGovernorMode("boost", cause)
		// Queues building or the tail approaching the bound: full boost,
		// and tighten the scheduler's planning headroom (the optimizer
		// "make[s] an adjustment using the latest feedback", §VI-C).
		for _, g := range sv.node.GPUs {
			g.SetDVFS(0)
		}
		if sv.dyn != nil {
			sv.dyn.SetSlackFactor(0.4)
			sv.dyn.SetThroughputMode(true)
		}
		sv.calmWindows = 0
		sv.lowPowerMode = false
	case sv.lowPowerMode:
		// Load returned while parked: restore nominal operation.
		for _, g := range sv.node.GPUs {
			g.SetDVFS(0)
		}
		sv.lowPowerMode = false
		sv.setGovernorMode("nominal", "load_return")
	default:
		// After two consecutive calm windows, restore the default planning
		// headroom and drop the GPUs to the mid DVFS point — the scheduler
		// plans around the slower clock, and the saving is what separates
		// Poly's power curve from the baselines' (Fig. 9). The hysteresis
		// keeps bursts from oscillating the operating point.
		sv.calmWindows++
		if sv.calmWindows >= 2 {
			for _, g := range sv.node.GPUs {
				g.SetDVFS(1)
			}
			if sv.dyn != nil {
				sv.dyn.SetSlackFactor(defaultRestoreSlack)
				sv.dyn.SetThroughputMode(false)
			}
			sv.setGovernorMode("calm", "slack_restore")
		}
	}
	if sv.dyn != nil {
		// Feed the arrival-rate estimate into the scheduler's batch-fill
		// prediction (the system-model part of Fig. 2's feedback loop).
		sv.dyn.SetLoadHint(float64(sv.windowArrivals) / governorPeriodMS * 1000)
	}
	sv.windowArrivals = 0
	sv.lastWindow = sv.windowLat
	sv.windowLat = sim.Sample{}
	sv.provisionBitstreams()
	sv.sim.AfterCall(sim.Duration(governorPeriodMS), fireGovernorTick, sv)
}

// provisionBitstreams keeps every kernel's preferred FPGA implementation
// resident on some board, flashing idle blank boards in the background.
// A foreground reconfiguration costs 80 ms of a request's budget; a
// background one costs nothing, so the governor pre-positions bitstreams
// the way a datacenter operator pre-stages container images.
func (sv *Server) provisionBitstreams() {
	sc := sv.dyn
	if sc == nil || len(sv.node.FPGAs) == 0 {
		return
	}
	fpgas := sv.boards[len(sv.node.GPUs):]
	resident := map[string]bool{}
	for i := range fpgas {
		b := &fpgas[i]
		if l := b.fpga.Loaded(); l != "" {
			resident[l] = true
		}
		if b.intended != "" {
			resident[b.intended] = true
		}
	}
	// Which kernels have no board at all? Prefer flashing blanks; when no
	// blanks remain, reclaim an idle board whose kernel is duplicated on
	// other boards (rebalancing, not eviction of sole capacity).
	kernelOf := func(id string) string {
		if im := sc.ImplByID(id); im != nil {
			return im.Kernel
		}
		return ""
	}
	boardKernels := map[string]int{}
	for i := range fpgas {
		if k := kernelOf(fpgas[i].residency()); k != "" {
			boardKernels[k]++
		}
	}
	var missing []string
	for _, k := range sv.prog.Kernels() {
		im := sc.PreferredFPGAImpl(k.Name)
		if im == nil {
			continue
		}
		if id := im.ID; !resident[id] && boardKernels[k.Name] == 0 {
			missing = append(missing, id)
		}
	}
	for i := range fpgas {
		if len(missing) == 0 {
			break
		}
		b := &fpgas[i]
		if b.fpga.Loaded() == "" && b.fpga.Idle() && b.intended == "" {
			b.fpga.Preload(missing[0])
			b.intended = missing[0]
			missing = missing[1:]
		}
	}
	for i := range fpgas {
		if len(missing) == 0 {
			break
		}
		b := &fpgas[i]
		if k := kernelOf(b.residency()); k != "" && boardKernels[k] > 1 && b.fpga.Idle() {
			boardKernels[k]--
			b.fpga.Preload(missing[0])
			b.intended = missing[0]
			missing = missing[1:]
		}
	}
}

// FaultInjector returns the attached fault injector (nil when faults
// are disabled) — cmd/polysim prints its scenario summary from it.
func (sv *Server) FaultInjector() *fault.Injector { return sv.injector }

// LatencySamples returns the post-warmup request latencies observed so
// far, in insertion order (Percentile queries never reorder the sample).
// Cached-vs-uncached equivalence tests compare these bitwise.
func (sv *Server) LatencySamples() []float64 { return sv.latencies.Values() }

// PlannerCacheStats reports the planner's plan-cache hit/miss counters.
func (sv *Server) PlannerCacheStats() (hits, misses int) { return sv.planner.PlanCacheStats() }

// latencyPressure reports whether the previous monitoring window's tail
// is close to the bound. Using a window, not the run-cumulative sample,
// lets the governor relax again after a transient burst.
func (sv *Server) latencyPressure() bool {
	if sv.lastWindow.Count() < 10 {
		return false
	}
	return sv.lastWindow.Percentile(95) > 0.85*sv.opts.BoundMS
}

// BoardReconfigs is one FPGA board's bitstream-load count over a run.
type BoardReconfigs struct {
	Board string
	Count int
}

// Result summarizes one serving run.
type Result struct {
	Arrivals, Completed int
	// Measured counts post-warmup requests (the QoS population).
	Measured     int
	Violations   int
	PlanErrors   int
	P50MS, P99MS float64
	MeanMS       float64
	// BoundMS is the QoS bound the run was served against.
	BoundMS float64
	// EnergyMJ is the node's accelerator energy over the run.
	EnergyMJ float64
	// AvgPowerW is energy over wall-clock duration.
	AvgPowerW float64
	// DurationMS is the simulated span from start to drain.
	DurationMS float64
	// ThroughputRPS is completed requests per second of duration.
	ThroughputRPS float64
	// Power is the sampled node power series (governor cadence).
	Power sim.TimeSeries
	// GPUTasks/FPGATasks count kernel executions per accelerator family.
	GPUTasks, FPGATasks int
	// GPULaunches counts physical GPU launches over the run; the ratio
	// GPUTasks / GPULaunches is the launch-amortization factor the
	// admission batcher exists to raise (see LaunchAmortization).
	GPULaunches int
	// Reconfigs counts FPGA bitstream loads over the run.
	Reconfigs int
	// CacheHits/CacheMisses are the planner's plan-cache counters.
	CacheHits, CacheMisses int
	// BoardReconfigs breaks Reconfigs down per FPGA board, in node order.
	BoardReconfigs []BoardReconfigs
	// Fault-layer accounting (all zero when no injector is attached).
	// Shed counts requests rejected at admission under degraded health;
	// Retries kernel re-placements; TaskFailures tasks lost to boards;
	// FailedRequests requests dropped after exhausting retries or
	// surviving capacity; BoardDownEvents distinct down transitions.
	Shed            int
	Retries         int
	TaskFailures    int
	FailedRequests  int
	BoardDownEvents int
	// Admission-batcher accounting (all zero when batching is off).
	// BatchGroups counts flushed groups; BatchedRequests their members;
	// BatchDisbands groups dissolved by a board-health transition;
	// MeanHoldMS the mean staging hold per batched request; MaxBatchSize
	// the largest group observed.
	BatchGroups     int
	BatchedRequests int
	BatchDisbands   int
	MeanHoldMS      float64
	MaxBatchSize    int
}

// LaunchAmortization is GPU kernel executions per physical launch
// (1 = no sharing; 0 when the run launched nothing on a GPU).
func (r Result) LaunchAmortization() float64 {
	if r.GPULaunches == 0 {
		return 0
	}
	return float64(r.GPUTasks) / float64(r.GPULaunches)
}

// String renders the run as the multi-line report cmd/polysim prints:
// the QoS outcome first, then the planner and board diagnostics that
// explain it.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests  %d arrived, %d completed, %d measured (bound %.0f ms)\n",
		r.Arrivals, r.Completed, r.Measured, r.BoundMS)
	fmt.Fprintf(&b, "latency   p50 %.2f ms  p99 %.2f ms  mean %.2f ms  violations %d (%.2f%%)\n",
		r.P50MS, r.P99MS, r.MeanMS, r.Violations, 100*r.ViolationRatio())
	fmt.Fprintf(&b, "power     %.1f mJ over %.0f ms (avg %.2f W), %.1f req/s\n",
		r.EnergyMJ, r.DurationMS, r.AvgPowerW, r.ThroughputRPS)
	fmt.Fprintf(&b, "planner   %d cache hits, %d misses, %d plan errors; %d GPU tasks, %d FPGA tasks",
		r.CacheHits, r.CacheMisses, r.PlanErrors, r.GPUTasks, r.FPGATasks)
	if r.Reconfigs > 0 || len(r.BoardReconfigs) > 0 {
		boards := append([]BoardReconfigs(nil), r.BoardReconfigs...)
		sort.Slice(boards, func(i, j int) bool { return boards[i].Board < boards[j].Board })
		parts := make([]string, 0, len(boards))
		for _, br := range boards {
			parts = append(parts, fmt.Sprintf("%s=%d", br.Board, br.Count))
		}
		fmt.Fprintf(&b, "\nreconfigs %d total", r.Reconfigs)
		if len(parts) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
		}
	}
	if r.Shed+r.Retries+r.TaskFailures+r.FailedRequests+r.BoardDownEvents > 0 {
		fmt.Fprintf(&b, "\nfaults    %d shed, %d retries, %d task failures, %d failed requests, %d board-down events",
			r.Shed, r.Retries, r.TaskFailures, r.FailedRequests, r.BoardDownEvents)
	}
	if r.BatchGroups > 0 || r.BatchDisbands > 0 {
		fmt.Fprintf(&b, "\nbatching  %d groups (%d requests, max size %d, mean hold %.2f ms), %d disbands, %.2f tasks/launch",
			r.BatchGroups, r.BatchedRequests, r.MaxBatchSize, r.MeanHoldMS, r.BatchDisbands, r.LaunchAmortization())
	}
	return b.String()
}

// ViolationRatio is the fraction of measured requests over the bound.
func (r Result) ViolationRatio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Measured)
}

// Collect drains the simulator and summarizes the run. It must be called
// once, after all arrivals are injected.
func (sv *Server) Collect() Result {
	// Drain: advance in governor-period steps until every injected
	// request has been admitted and completed. (Run-to-empty would never
	// terminate with the governor enabled — it reschedules itself
	// forever.)
	horizon := sv.sim.Now() + sim.Time(governorPeriodMS)
	for !sv.Drained() {
		sv.sim.RunUntil(horizon)
		horizon += sim.Time(governorPeriodMS)
	}
	// One more horizon flushes trailing bookkeeping events (device power
	// transitions). Never Run-to-empty: the governor reschedules itself
	// forever.
	sv.sim.RunUntil(horizon)
	return sv.Summarize()
}

// Drained reports whether every injected arrival has been admitted and
// completed — the serving loop's termination condition. A fleet drains
// all its shards before summarizing any of them.
func (sv *Server) Drained() bool {
	return sv.pendingArrivals == 0 && sv.inFlight == 0
}

// GovernorPeriodMS returns the monitor/optimizer cycle length — the
// horizon step a fleet's drain loop advances its shard clocks by.
func (sv *Server) GovernorPeriodMS() float64 { return governorPeriodMS }

// Summarize builds the run summary at the current instant without
// driving the simulator. Collect = drain + Summarize; a fleet drains its
// shard clocks itself and then summarizes each shard. Call it once.
func (sv *Server) Summarize() Result {
	start := sv.powerTS.Times[0]
	end := sv.sim.Now()
	w := sv.node.PowerW()
	sv.powerTS.Add(end, w)
	if sv.tel != nil {
		sv.tel.PowerSample(end, w)
	}

	res := Result{
		Arrivals:   sv.arrivals,
		Completed:  sv.completed,
		Measured:   sv.measured,
		Violations: sv.violations,
		GPUTasks:   sv.gpuTasks,
		FPGATasks:  sv.fpgaTasks,
		PlanErrors: sv.planErrors,
		P50MS:      sv.latencies.Percentile(50),
		P99MS:      sv.latencies.P99(),
		MeanMS:     sv.latencies.Mean(),
		BoundMS:    sv.opts.BoundMS,
		EnergyMJ:   sv.node.EnergyMJ(),
		DurationMS: float64(end - start),
		Power:      sv.powerTS,
	}
	res.CacheHits, res.CacheMisses = sv.PlannerCacheStats()
	for _, g := range sv.node.GPUs {
		l, _, _ := g.Launches()
		res.GPULaunches += l
	}
	res.BatchGroups = sv.batchGroups
	res.BatchedRequests = sv.batchedRequests
	res.BatchDisbands = sv.batchDisbands
	res.MaxBatchSize = sv.maxBatchSize
	if sv.batchedRequests > 0 {
		res.MeanHoldMS = sv.batchHoldSumMS / float64(sv.batchedRequests)
	}
	res.Shed = sv.shed
	res.Retries = sv.retries
	res.TaskFailures = sv.taskFailures
	res.FailedRequests = sv.failedRequests
	res.BoardDownEvents = sv.boardDownEvents
	for _, f := range sv.node.FPGAs {
		res.Reconfigs += f.Reconfigs()
		res.BoardReconfigs = append(res.BoardReconfigs, BoardReconfigs{Board: f.Name(), Count: f.Reconfigs()})
	}
	if res.DurationMS > 0 {
		res.AvgPowerW = res.EnergyMJ / res.DurationMS
		res.ThroughputRPS = float64(res.Completed) / res.DurationMS * 1000
	}
	return res
}
