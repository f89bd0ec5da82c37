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

// Planner plans one request over the node's devices. *sched.Scheduler
// (Heter-Poly) and *sched.StaticPlanner (the Homo-* baselines) both
// implement it.
type Planner interface {
	Schedule(devices []sched.DeviceState, boundMS float64) (*sched.Plan, error)
}

var (
	_ Planner = (*sched.Scheduler)(nil)
	_ Planner = (*sched.StaticPlanner)(nil)
)

// Options configures a server.
type Options struct {
	// BoundMS is the QoS tail-latency bound (program default if zero).
	BoundMS float64
	// GovernorPeriodMS is the monitor/optimizer cycle (500 ms if zero).
	GovernorPeriodMS float64
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

// defaultRestoreSlack is the planning headroom the governor restores in
// calm windows (mirrors the scheduler's default).
const defaultRestoreSlack = 0.6

// Server drives one application on one node.
type Server struct {
	sim     *sim.Simulator
	node    *cluster.Node
	prog    *opencl.Program
	planner Planner
	opts    Options

	accels map[string]device.Accelerator

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
	// intended records the bitstream each FPGA board is committed to by
	// admitted (possibly not-yet-submitted) plans. Planning against the
	// intended residency instead of the instantaneous one prevents two
	// overlapping requests from claiming the same blank board for
	// different kernels and ping-ponging reconfigurations forever.
	intended map[string]string
	// devScratch is the reusable device-state snapshot buffer: admit
	// runs once per request, and both planners copy the slice before
	// retaining anything, so the snapshot never needs to survive a call.
	devScratch []sched.DeviceState

	// pi is the program interned to dense kernel indices (built once in
	// NewServer); reqFree/taskFree/propFree are the free lists the serving
	// loop recycles request, task, and edge-propagation objects through.
	// Recycling is safe because every object counts its outstanding
	// callbacks (request.refs) or is released exactly at its single
	// callback (tasks, edge props).
	pi       progIndex
	reqFree  []*request
	taskFree []*device.Task
	propFree []*edgeProp

	// tel is the telemetry sink (nil = disabled). govMode tracks the
	// governor's operating mode for transition events; lastCacheHits
	// lets admit turn the planner's cumulative cache counters into
	// per-plan hit/miss deltas.
	tel           telemetry.Sink
	govMode       string
	lastCacheHits int

	// injector is the fault layer (nil = faults disabled; every fault
	// path below is gated on it). health is the runtime's belief about
	// each board (see health.go); healthEpoch is the generation counter
	// that keys plan-cache invalidation on health transitions.
	injector    *fault.Injector
	health      map[string]*boardHealth
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
	timerFree     []*batchTimer
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

// NewServer wires an application and planner onto a node.
func NewServer(node *cluster.Node, prog *opencl.Program, planner Planner, opts Options) (*Server, error) {
	if node == nil || prog == nil || planner == nil {
		return nil, fmt.Errorf("runtime: nil node, program, or planner")
	}
	if opts.BoundMS <= 0 {
		opts.BoundMS = prog.LatencyBoundMS
	}
	if opts.GovernorPeriodMS <= 0 {
		opts.GovernorPeriodMS = 500
	}
	sv := &Server{
		sim:      node.Sim,
		node:     node,
		prog:     prog,
		planner:  planner,
		opts:     opts,
		accels:   make(map[string]device.Accelerator),
		intended: make(map[string]string),
		tel:      opts.Telemetry,
		govMode:  "nominal",
	}
	for _, a := range node.Accelerators() {
		sv.accels[a.Name()] = a
	}
	if len(sv.accels) == 0 {
		return nil, fmt.Errorf("runtime: node has no accelerators")
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
			if sc, ok := planner.(*sched.Scheduler); ok {
				sv.batchCap = sc.MaxGPUBatch()
			}
		}
	}
	if opts.Faults != nil && opts.Faults.Enabled() {
		boards := make([]string, 0, len(sv.accels))
		for _, g := range node.GPUs {
			boards = append(boards, g.Name())
		}
		for _, f := range node.FPGAs {
			boards = append(boards, f.Name())
		}
		sv.injector = fault.New(*opts.Faults, boards)
		sv.health = make(map[string]*boardHealth, len(boards))
		for _, b := range boards {
			sv.health[b] = &boardHealth{}
		}
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
		sv.tel.PowerSample(sv.sim.Now(), node.PowerW())
	}
	sv.powerTS.Add(sv.sim.Now(), node.PowerW())
	if opts.Governor {
		sv.sim.AfterCall(sim.Duration(opts.GovernorPeriodMS), fireGovernorTick, sv)
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
	kidx      map[string]int32
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
	pi.kidx = make(map[string]int32, len(ks))
	for i, k := range ks {
		pi.names[i] = k.Name
		pi.kidx[k.Name] = int32(i)
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
				to:         pi.kidx[e.To],
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

// deviceStates snapshots the node for the scheduler (Eq. 4 inputs).
// The returned slice is scratch reused across admits.
func (sv *Server) deviceStates() []sched.DeviceState {
	now := sv.sim.Now()
	out := sv.devScratch[:0]
	for _, g := range sv.node.GPUs {
		// Down boards leave the EST tables entirely; suspect boards carry
		// a fixed availability penalty (see health.go). Both branches are
		// unreachable without an injector.
		h := sv.healthState(g.Name())
		if h == healthDown {
			continue
		}
		ds := sched.DeviceState{
			Name:      g.Name(),
			Class:     device.GPU,
			FreeAtMS:  float64(g.NextFreeAt() - now),
			FreqScale: g.FreqScale(),
		}
		if h == healthSuspect {
			ds.FreeAtMS += suspectPenaltyMS
		}
		out = append(out, ds)
	}
	for _, f := range sv.node.FPGAs {
		h := sv.healthState(f.Name())
		if h == healthDown {
			continue
		}
		loaded := sv.intended[f.Name()]
		if loaded == "" {
			loaded = f.Loaded()
		}
		ds := sched.DeviceState{
			Name:       f.Name(),
			Class:      device.FPGA,
			FreeAtMS:   float64(f.NextFreeAt() - now),
			LoadedImpl: loaded,
			ReconfigMS: sv.node.Plan.Setting.FPGA.ReconfigMS,
			FreqScale:  1,
		}
		if h == healthSuspect {
			ds.FreeAtMS += suspectPenaltyMS
		}
		out = append(out, ds)
	}
	sv.devScratch = out
	return out
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
	if sv.health == nil {
		return len(sv.accels), 0, 0
	}
	for _, h := range sv.health {
		switch h.state {
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
// batcher enabled — into the staging stage. The disabled branch is the
// exact pre-batcher path, which is what keeps BatchWaitMS == 0
// bit-identical to a build without the batcher.
func fireAdmit(_ sim.Time, a any) {
	sv := a.(*Server)
	if sv.batching && sv.batchCoexec {
		sv.stage()
		return
	}
	sv.admit()
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
	// request-private Assignments on failure retries (the PlanView-style
	// rebase — the plan itself is never written).
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

// poolChunk is how many request/task objects one free-list refill
// allocates at once. The pools only ever grow to the run's peak
// concurrency, so chunking turns that growth from one allocation per
// object into one per chunk without retaining more than a chunk's
// worth of slack.
const poolChunk = 64

func (sv *Server) acquireRequest() *request {
	if n := len(sv.reqFree); n > 0 {
		r := sv.reqFree[n-1]
		sv.reqFree = sv.reqFree[:n-1]
		return r
	}
	chunk := make([]request, poolChunk)
	for i := 1; i < poolChunk; i++ {
		sv.reqFree = append(sv.reqFree, &chunk[i])
	}
	return &chunk[0]
}

func (sv *Server) acquireTask() *device.Task {
	if n := len(sv.taskFree); n > 0 {
		t := sv.taskFree[n-1]
		sv.taskFree = sv.taskFree[:n-1]
		return t
	}
	chunk := make([]device.Task, poolChunk)
	for i := 1; i < poolChunk; i++ {
		sv.taskFree = append(sv.taskFree, &chunk[i])
	}
	return &chunk[0]
}

// releaseTask recycles a task whose single lifecycle callback has fired;
// the device layer never touches a task after done/fail.
func (sv *Server) releaseTask(t *device.Task) {
	*t = device.Task{}
	sv.taskFree = append(sv.taskFree, t)
}

func (sv *Server) acquireProp() *edgeProp {
	if n := len(sv.propFree); n > 0 {
		p := sv.propFree[n-1]
		sv.propFree = sv.propFree[:n-1]
		return p
	}
	chunk := make([]edgeProp, poolChunk)
	for i := 1; i < poolChunk; i++ {
		sv.propFree = append(sv.propFree, &chunk[i])
	}
	return &chunk[0]
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
	sv.reqFree = append(sv.reqFree, r)
}

// admit plans and launches a request at the current instant.
func (sv *Server) admit() {
	sv.pendingArrivals--
	sv.arrivals++
	sv.windowArrivals++
	if sv.lowPowerMode {
		// Wake on arrival: a request must not be served at the parked
		// operating point until the next governor tick.
		for _, g := range sv.node.GPUs {
			g.SetDVFS(1)
		}
		sv.lowPowerMode = false
		sv.setGovernorMode("nominal", "arrival_wake")
	}
	// Admission control under degradation: when boards are down or
	// suspect, feasible capacity may not meet the bound. Shedding the
	// request at admission is a fast rejection the client can retry
	// elsewhere; admitting it would turn one board's fault into tail
	// violations for the whole population (ISSUE: prefer rejection).
	degraded := sv.injector != nil && sv.degraded()
	plan, err := sv.planner.Schedule(sv.deviceStates(), sv.opts.BoundMS)
	if err != nil {
		if degraded {
			sv.shed++
			if sv.tel != nil {
				sv.tel.RequestShed(sv.sim.Now())
			}
			return
		}
		sv.planErrors++
		if sv.tel != nil {
			sv.tel.PlanError(sv.sim.Now())
		}
		return
	}
	if degraded && plan.MakespanMS > shedHeadroom*sv.opts.BoundMS {
		sv.shed++
		if sv.tel != nil {
			sv.tel.RequestShed(sv.sim.Now())
		}
		return
	}
	if sv.batching {
		// Arrivals reach admit() with batching on only while the staging
		// gate is closed; keep the hold-budget predictor fresh for when
		// a reprobe reopens it. (Single-request plans never move the
		// gate itself — see notePlan.)
		sv.notePlan(plan, 1)
	}
	var span *telemetry.Span
	if sv.tel != nil {
		hits, _ := sv.PlannerCacheStats()
		hit := hits > sv.lastCacheHits
		sv.lastCacheHits = hits
		sv.tel.PlanUpdate(hit, plan.EnergySwaps)
		span = sv.tel.StartSpan(sv.sim.Now(), sv.opts.BoundMS)
		span.CacheHit = hit
		span.PlanMakespanMS = plan.MakespanMS
		span.EnergySwaps = plan.EnergySwaps
	}
	// Batches form from the queue: arrivals during a running launch
	// coalesce into the next one, which self-balances with load. A fixed
	// accumulation window is kept tiny — just enough to merge
	// near-simultaneous arrivals without spending the latency budget.
	sv.startRequest(sv.sim.Now(), plan, span, admitWindowMS)
}

// startRequest builds the pooled request for an admitted plan and
// submits its source kernels — the shared tail of every admission path.
// arrivedAt is the request's true arrival instant (an admission-batched
// request's latency includes its staging hold); windowMS is the
// per-kernel in-queue accumulation window (for group members, only the
// part of admitWindowMS the staging hold left unspent — the two
// accumulation stages never wait the same budget twice).
func (sv *Server) startRequest(arrivedAt sim.Time, plan *sched.Plan, span *telemetry.Span, windowMS float64) {
	sv.inFlight++
	pi := &sv.pi
	nk := len(pi.names)
	r := sv.acquireRequest()
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
	// One walk over the assignments in planned start order both indexes
	// them by kernel and records intended FPGA residency: when a plan
	// places two kernels on the same board, the later one's bitstream is
	// the residency the board ends up with. (plan.Assignments is a map —
	// ranging over it directly would make the winner random.)
	for _, a := range plan.Order() {
		r.assign[pi.kidx[a.Kernel]] = a
		if a.Impl.Platform == device.FPGA {
			sv.intended[a.Device] = a.Impl.ID
		}
	}
	// Submit sources in declaration order for determinism.
	for _, ki := range pi.sources {
		r.submit(ki)
	}
	r.maybeRelease()
}

// submit dispatches one kernel's task to its planned device. The task is
// pooled and carries the request as its Owner plus the per-task context
// (device, kernel index, predicted finish) the lifecycle callbacks need —
// no closures are allocated on this path.
func (r *request) submit(ki int32) {
	sv := r.sv
	a := r.assign[ki]
	accel := sv.accels[a.Device]
	if accel == nil {
		// The planner referenced an unknown device — drop the request
		// rather than corrupt accounting.
		sv.planErrors++
		if sv.tel != nil {
			sv.tel.PlanError(sv.sim.Now())
		}
		r.finishRequest(false)
		return
	}
	if accel.Class() == device.GPU {
		sv.gpuTasks++
	} else {
		sv.fpgaTasks++
	}
	t := sv.acquireTask()
	*t = device.Task{
		Kernel:         a.Kernel,
		ImplID:         a.Impl.ID,
		LatencyMS:      a.Impl.LatencyMS,
		IntervalMS:     a.Impl.IntervalMS,
		Batch:          a.Impl.Config.Batch,
		PowerW:         a.Impl.PowerW,
		Owner:          r,
		Device:         a.Device,
		KernelIdx:      ki,
		PredictedEndMS: a.EndMS,
	}
	if r.span != nil {
		r.ks[ki] = r.span.AddKernel(a.Kernel, a.Device, sched.ImplID(a.Impl), float64(sv.sim.Now()))
	}
	if t.Batch > 1 {
		t.WindowMS = r.windowMS
	}
	r.refs++
	accel.Submit(t)
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
		sv.observeCompletion(t.Device, t.PredictedEndMS, float64(at-r.arrivedAt), at)
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
		p := sv.acquireProp()
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
	sv.propFree = append(sv.propFree, p)
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
	sv.powerTS.Add(sv.sim.Now(), sv.node.PowerW())
	if sv.tel != nil {
		sv.tel.PowerSample(sv.sim.Now(), sv.node.PowerW())
	}

	var queued int
	for _, a := range sv.accels {
		queued += a.QueueLen()
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
	case queued > len(sv.accels) || sv.latencyPressure():
		cause := "latency_pressure"
		if queued > len(sv.accels) {
			cause = "queue_depth"
		}
		sv.setGovernorMode("boost", cause)
		// Queues building or the tail approaching the bound: full boost,
		// and tighten the scheduler's planning headroom (the optimizer
		// "make[s] an adjustment using the latest feedback", §VI-C).
		for _, g := range sv.node.GPUs {
			g.SetDVFS(0)
		}
		if sc, ok := sv.planner.(*sched.Scheduler); ok {
			sc.SetSlackFactor(0.4)
			sc.SetThroughputMode(true)
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
			if sc, ok := sv.planner.(*sched.Scheduler); ok {
				sc.SetSlackFactor(defaultRestoreSlack)
				sc.SetThroughputMode(false)
			}
			sv.setGovernorMode("calm", "slack_restore")
		}
	}
	if sc, ok := sv.planner.(*sched.Scheduler); ok {
		// Feed the arrival-rate estimate into the scheduler's batch-fill
		// prediction (the system-model part of Fig. 2's feedback loop).
		sc.SetLoadHint(float64(sv.windowArrivals) / sv.opts.GovernorPeriodMS * 1000)
	}
	sv.windowArrivals = 0
	sv.lastWindow = sv.windowLat
	sv.windowLat = sim.Sample{}
	sv.provisionBitstreams()
	sv.sim.AfterCall(sim.Duration(sv.opts.GovernorPeriodMS), fireGovernorTick, sv)
}

// provisionBitstreams keeps every kernel's preferred FPGA implementation
// resident on some board, flashing idle blank boards in the background.
// A foreground reconfiguration costs 80 ms of a request's budget; a
// background one costs nothing, so the governor pre-positions bitstreams
// the way a datacenter operator pre-stages container images.
func (sv *Server) provisionBitstreams() {
	sc, ok := sv.planner.(*sched.Scheduler)
	if !ok || len(sv.node.FPGAs) == 0 {
		return
	}
	resident := map[string]bool{}
	for _, f := range sv.node.FPGAs {
		if f.Loaded() != "" {
			resident[f.Loaded()] = true
		}
		if id := sv.intended[f.Name()]; id != "" {
			resident[id] = true
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
	for _, f := range sv.node.FPGAs {
		id := sv.intended[f.Name()]
		if id == "" {
			id = f.Loaded()
		}
		if k := kernelOf(id); k != "" {
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
	for _, f := range sv.node.FPGAs {
		if len(missing) == 0 {
			break
		}
		if f.Loaded() == "" && f.Idle() && sv.intended[f.Name()] == "" {
			f.Preload(missing[0])
			sv.intended[f.Name()] = missing[0]
			missing = missing[1:]
		}
	}
	for _, f := range sv.node.FPGAs {
		if len(missing) == 0 {
			break
		}
		cur := sv.intended[f.Name()]
		if cur == "" {
			cur = f.Loaded()
		}
		if k := kernelOf(cur); k != "" && boardKernels[k] > 1 && f.Idle() {
			boardKernels[k]--
			f.Preload(missing[0])
			sv.intended[f.Name()] = missing[0]
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

// PlannerCacheStats reports the planner's plan-cache hit/miss counters
// when the planner memoizes (both the dynamic scheduler and the static
// baselines do), or zeros otherwise.
func (sv *Server) PlannerCacheStats() (hits, misses int) {
	type cacheStats interface{ PlanCacheStats() (int, int) }
	if cs, ok := sv.planner.(cacheStats); ok {
		return cs.PlanCacheStats()
	}
	return 0, 0
}

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
	horizon := sv.sim.Now() + sim.Time(sv.opts.GovernorPeriodMS)
	for !sv.Drained() {
		sv.sim.RunUntil(horizon)
		horizon += sim.Time(sv.opts.GovernorPeriodMS)
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
func (sv *Server) GovernorPeriodMS() float64 { return sv.opts.GovernorPeriodMS }

// Summarize builds the run summary at the current instant without
// driving the simulator. Collect = drain + Summarize; a fleet drains its
// shard clocks itself and then summarizes each shard. Call it once.
func (sv *Server) Summarize() Result {
	start := sv.powerTS.Times[0]
	end := sv.sim.Now()
	sv.powerTS.Add(end, sv.node.PowerW())
	if sv.tel != nil {
		sv.tel.PowerSample(end, sv.node.PowerW())
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
