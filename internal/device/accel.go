package device

import (
	"fmt"

	"poly/internal/sim"
)

// Task is one kernel execution submitted to an accelerator. The latency,
// interval, and power numbers come from the implementation the runtime
// scheduler selected (a model.Impl); the device simulator adds the
// effects the analytical model cannot see: queueing, batch formation,
// DVFS state, and FPGA reconfiguration.
type Task struct {
	// Kernel is the kernel name (for accounting).
	Kernel string
	// ImplID identifies the implementation (kernel + config). The GPU
	// batches only same-impl tasks; the FPGA reconfigures when it changes.
	ImplID string
	// LatencyMS is the batch execution latency at nominal frequency.
	LatencyMS float64
	// IntervalMS is the pipelined initiation interval (FPGA); ≥ LatencyMS
	// means no request-level pipelining.
	IntervalMS float64
	// Batch is the launch's batch capacity (GPU; 1 on FPGA).
	Batch int
	// WindowMS bounds how long the GPU may hold this task to accumulate
	// a fuller batch (DjiNN-style deadline-aware batching). Zero launches
	// immediately.
	WindowMS float64
	// enqueuedAt is stamped by the device on Submit.
	enqueuedAt sim.Time
	// PowerW is the board's active power while executing this impl.
	PowerW float64
	// Owner receives the task's lifecycle callbacks. A nil Owner runs
	// the task silently: it still occupies the board, but no one hears
	// of its start, completion or failure.
	Owner TaskOwner
	// Device is the board name the task was submitted to, so the Owner
	// callbacks can attribute the task without a captured closure.
	Device string
	// KernelIdx is the owner's dense kernel index for Kernel (see
	// runtime's program interning); opaque to the device layer.
	KernelIdx int32
	// PredictedEndMS carries the plan's predicted completion time for
	// fault-monitor comparison at fire time.
	PredictedEndMS float64

	// fpga backlinks the board while an FPGA completion event for this
	// task is in flight (closure-free completion dispatch).
	fpga *FPGADevice
}

// TaskOwner receives a task's lifecycle callbacks. One long-lived owner
// serves every task it submits, with the task itself carrying the
// per-task context (Device, KernelIdx, PredictedEndMS), so submitting
// allocates no closures.
type TaskOwner interface {
	// TaskStarted fires when the device begins executing the task (the
	// launch or pipeline-initiation instant).
	TaskStarted(t *Task, at sim.Time)
	// TaskDone fires when the task completes.
	TaskDone(t *Task, at sim.Time)
	// TaskFailed fires instead of TaskDone when the board loses the task:
	// a submission rejected or a queue flushed by an injected board
	// failure, or a bitstream that repeatedly refuses to load.
	TaskFailed(t *Task, at sim.Time)
}

// started/done report a lifecycle step to the task's owner, if any.

func (t *Task) started(at sim.Time) {
	if t.Owner != nil {
		t.Owner.TaskStarted(t, at)
	}
}

func (t *Task) done(at sim.Time) {
	if t.Owner != nil {
		t.Owner.TaskDone(t, at)
	}
}

// FaultHook lets a fault-injection layer perturb a board's behavior.
// *fault.Injector implements it structurally; a nil hook (the default)
// costs the devices only nil-checks and leaves execution bit-identical
// to a build without fault injection.
type FaultHook interface {
	// ExecScale returns the service-time multiplier for one execution
	// starting at `at` (1 = unperturbed).
	ExecScale(board, implID string, at sim.Time) float64
	// BoardDown reports whether the board is inside a failure window.
	BoardDown(board string, at sim.Time) bool
	// ReconfigAborts decides whether one FPGA bitstream-load attempt
	// fails: the penalty is paid but the bitstream is not resident.
	ReconfigAborts(board, implID string, at sim.Time) bool
}

// Observer receives board-level telemetry events. The runtime attaches
// one (telemetry.Sink satisfies it structurally); a nil observer costs a
// device only nil-checks.
type Observer interface {
	// Launched reports one physical execution: a (possibly batched) GPU
	// launch or one FPGA task, with its execution window.
	Launched(device, kernel, implID string, batch int, start, end sim.Time)
	// ReconfigStart reports an FPGA bitstream load beginning at `at` and
	// stalling the board for stallMS; background loads are governor
	// preloads, foreground ones are paid by a request.
	ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool)
	// DVFSChanged reports a GPU operating-point change.
	DVFSChanged(device string, level int, at sim.Time)
}

// ResourceObserver receives board occupancy events for resource
// accounting (telemetry.Sink satisfies it structurally). It is separate
// from Observer because it fires on state *transitions* rather than on
// work items: busy flips, power-level changes, bitstream residency. A
// nil observer costs a device only nil-checks and never perturbs the
// simulated timeline.
type ResourceObserver interface {
	// BusyChanged reports the board's in-flight task count. Boards elide
	// interior changes: only idle↔busy transitions are guaranteed.
	BusyChanged(device string, busy int, at sim.Time)
	// PowerChanged reports a change of instantaneous draw.
	PowerChanged(device string, watts float64, at sim.Time)
	// BitstreamResident reports the bitstream occupying an FPGA's
	// reconfigurable region ("" after an aborted load leaves it blank).
	BitstreamResident(device, implID string, at sim.Time)
}

// Accelerator is a simulated board: it accepts tasks, reports occupancy
// for the scheduler's EST table (Eq. 4), and accounts energy.
type Accelerator interface {
	// Name is the board instance name, unique within a node.
	Name() string
	// Class is GPU or FPGA.
	Class() Class
	// Submit enqueues a task.
	Submit(t *Task)
	// NextFreeAt estimates when a newly submitted task could start —
	// the T_queue(d_n) term of the scheduler's EST computation.
	NextFreeAt() sim.Time
	// QueueLen is the number of tasks waiting or running.
	QueueLen() int
	// PowerW is the instantaneous power draw.
	PowerW() float64
	// EnergyMJ is the accumulated energy in millijoules since creation.
	EnergyMJ() float64
	// Perturb returns the device's deterministic execution-time noise
	// factor for an impl — the gap between analytical model and
	// "hardware" the paper reports as ≤6 % (Section VI-C).
	Perturb(implID string) float64
}

// accelBase carries the bookkeeping shared by both device families.
type accelBase struct {
	name   string
	sim    *sim.Simulator
	power  float64 // instantaneous watts
	energy float64 // accumulated mJ
	lastAt sim.Time
	obs    Observer         // nil when telemetry is disabled
	res    ResourceObserver // nil when resource accounting is disabled
	fault  FaultHook        // nil when fault injection is disabled
}

func (b *accelBase) Name() string { return b.name }

// SetObserver attaches (or detaches, with nil) a telemetry observer.
func (b *accelBase) SetObserver(o Observer) { b.obs = o }

// SetResourceObserver attaches (or detaches, with nil) a resource
// accounting observer.
func (b *accelBase) SetResourceObserver(o ResourceObserver) { b.res = o }

// notifyBusy reports an idle↔busy transition.
func (b *accelBase) notifyBusy(n int) {
	if b.res != nil {
		b.res.BusyChanged(b.name, n, b.sim.Now())
	}
}

// SetFaultHook attaches (or detaches, with nil) a fault injector.
func (b *accelBase) SetFaultHook(h FaultHook) { b.fault = h }

// down reports whether the injected fault plan has the board failed now.
func (b *accelBase) down() bool {
	return b.fault != nil && b.fault.BoardDown(b.name, b.sim.Now())
}

// failTask reports a lost task to its owner at the next event boundary —
// deferring keeps the failure callback (which typically re-submits the
// task elsewhere) out of the device's own queue manipulation.
func (b *accelBase) failTask(t *Task) {
	if t.Owner != nil {
		b.sim.AfterCall(0, fireTaskFail, t)
	}
}

func fireTaskFail(at sim.Time, a any) {
	t := a.(*Task)
	t.Owner.TaskFailed(t, at)
}

// execScale returns the fault layer's duration multiplier (1 when off).
func (b *accelBase) execScale(implID string) float64 {
	if b.fault == nil {
		return 1
	}
	return b.fault.ExecScale(b.name, implID, b.sim.Now())
}

// setPower integrates energy up to now and switches the draw level.
func (b *accelBase) setPower(w float64) {
	now := b.sim.Now()
	b.energy += b.power * float64(now-b.lastAt)
	b.lastAt = now
	if b.res != nil && w != b.power {
		b.res.PowerChanged(b.name, w, now)
	}
	b.power = w
}

func (b *accelBase) PowerW() float64 { return b.power }

func (b *accelBase) EnergyMJ() float64 {
	// Include the span since the last state change.
	return b.energy + b.power*float64(b.sim.Now()-b.lastAt)
}

// perturb derives a deterministic per-impl execution noise in
// [1-amp, 1+amp] from a string hash, standing in for the measurement
// noise of real hardware. The paper's model-accuracy claim (≤6 % error)
// is validated against this (BenchmarkModelAccuracy). The two parts are
// hashed as if concatenated with '/' — FNV is a streaming hash, so this
// matches hashing dev+"/"+impl without building the string (Perturb runs
// once per task execution; the concat was a top allocation site under
// load).
func perturb(dev, impl string, amp float64) float64 {
	var h uint32 = 2166136261
	for i := 0; i < len(dev); i++ {
		h ^= uint32(dev[i])
		h *= 16777619
	}
	h ^= uint32('/')
	h *= 16777619
	for i := 0; i < len(impl); i++ {
		h ^= uint32(impl[i])
		h *= 16777619
	}
	u := float64(h%2048)/1023.5 - 1 // [-1, 1]
	return 1 + amp*u
}

// GPUDevice simulates one GPU board: a FIFO queue whose head batch (up to
// the impl's batch capacity, same impl only) executes as one launch, with
// a DVFS ladder that scales both speed and power.
type GPUDevice struct {
	accelBase
	spec     GPUSpec
	level    int // index into spec.DVFS
	queue    []*Task
	running  bool
	freeAt   sim.Time
	launches int
	tasks    int
	busyMS   float64

	// batchBuf holds the in-flight launch's batch until its completion
	// event fires; only one launch runs at a time, so one buffer
	// suffices. keepBuf is launch's scratch for the queue remainder and
	// nfaGroups is NextFreeAt's batch-compression scratch — all reused
	// across calls so the steady-state hot path allocates nothing.
	batchBuf  []*Task
	keepBuf   []*Task
	nfaGroups []gpuGroup

	// onLaunch, when non-nil, receives each launch's batch size and
	// capacity — a hook for the package's batching tests.
	onLaunch func(batch, cap int)
}

// gpuGroup accumulates NextFreeAt's per-kernel queue compression.
type gpuGroup struct {
	kernel string
	n, cap int
	lat    float64
}

// NewGPU attaches a simulated GPU board to a simulator.
func NewGPU(s *sim.Simulator, name string, spec GPUSpec) *GPUDevice {
	g := &GPUDevice{accelBase: accelBase{name: name, sim: s}, spec: spec}
	if len(g.spec.DVFS) == 0 {
		g.spec.DVFS = []DVFSLevel{{FreqScale: 1, PowerScale: 1}}
	}
	g.setPower(g.idlePower())
	return g
}

// Class returns GPU.
func (g *GPUDevice) Class() Class { return GPU }

// SetDVFS selects an operating point; out-of-range levels clamp. Lower
// levels (higher index) slow execution but cut both active and idle power
// — the runtime's knob for light-load energy proportionality.
func (g *GPUDevice) SetDVFS(level int) {
	if level < 0 {
		level = 0
	}
	if level >= len(g.spec.DVFS) {
		level = len(g.spec.DVFS) - 1
	}
	if g.obs != nil && level != g.level {
		g.obs.DVFSChanged(g.name, level, g.sim.Now())
	}
	g.level = level
	if !g.running {
		g.setPower(g.idlePower())
	}
}

// DVFSLevel returns the current ladder index.
func (g *GPUDevice) DVFSLevel() int { return g.level }

// FreqScale returns the current operating point's clock multiplier.
func (g *GPUDevice) FreqScale() float64 { return g.spec.DVFS[g.level].FreqScale }

// Launches and ExecutedTasks report launch statistics for diagnostics.
func (g *GPUDevice) Launches() (launches, tasks int, busyMS float64) {
	return g.launches, g.tasks, g.busyMS
}

func (g *GPUDevice) idlePower() float64 {
	// Idle draw shrinks with the ladder: clock gating plus memory
	// downclocking, floored by board static power.
	ps := g.spec.DVFS[g.level].PowerScale
	return g.spec.IdlePowerW * (0.4 + 0.6*ps)
}

// Submit enqueues a task. The launch fires at the next event boundary so
// that same-instant submissions can form one batch. A board inside an
// injected failure window rejects the submission outright.
func (g *GPUDevice) Submit(t *Task) {
	if g.down() {
		g.failTask(t)
		return
	}
	t.enqueuedAt = g.sim.Now()
	g.queue = append(g.queue, t)
	if !g.running {
		// (Re-)evaluate at the next event boundary: a new arrival may
		// complete a batch that was waiting on its window.
		g.sim.AfterCall(0, fireGPULaunch, g)
	}
}

func fireGPULaunch(_ sim.Time, a any) { a.(*GPUDevice).launch() }

func fireGPUDone(now sim.Time, a any) {
	g := a.(*GPUDevice)
	g.running = false
	g.notifyBusy(0)
	for _, t := range g.batchBuf {
		t.done(now)
	}
	g.launch()
}

// launch forms a batch from the queue head and executes it. When the head
// batch is not yet full and its accumulation window has not expired, the
// launch is deferred — trading a bounded wait for the amortization that
// makes GPUs throughput-efficient.
func (g *GPUDevice) launch() {
	if g.running {
		return
	}
	if g.down() {
		// The board failed while work was queued: flush everything. The
		// owners' TaskFailed callbacks re-place the tasks on healthy boards.
		q := g.queue
		g.queue = nil
		g.setPower(g.idlePower())
		for _, t := range q {
			g.failTask(t)
		}
		return
	}
	if len(g.queue) == 0 {
		g.running = false
		g.setPower(g.idlePower())
		return
	}
	head := g.queue[0]
	// Use the widest batch capacity any queued same-kernel variant
	// offers: a batch-1 variant at the head must not cap a launch that
	// batched variants behind it could share. The launch executes as that
	// widest variant, so the task carrying it must be IN the launch — a
	// capacity justified by a task the batch cannot reach (more narrow
	// work queued ahead than the launch can carry) would overfill a
	// narrow variant past its physical batch limit. wi remembers the
	// first task providing the cap so the gather below reserves it a slot.
	cap := 1
	wi := -1
	for i, t := range g.queue {
		if t.Kernel == head.Kernel && t.Batch > cap {
			cap = t.Batch
			wi = i
		}
	}
	// Gather up to cap tasks of the head's KERNEL from anywhere in the
	// queue — a per-kernel batch queue, the way serving systems coalesce
	// same-model launches. Tasks planned with different implementation
	// variants of the same kernel still share one launch (the widest
	// variant): fragmenting batches by directive variant would collapse
	// the GPU's throughput exactly when the scheduler is load-balancing
	// variants under pressure. One slot stays reserved for the
	// cap-justifying task until it is taken.
	batch := g.batchBuf[:0]
	keep := g.keepBuf[:0]
	capTaken := wi < 0
	for i, t := range g.queue {
		if t.Kernel != head.Kernel {
			keep = append(keep, t)
			continue
		}
		slots := cap - len(batch)
		if i == wi {
			batch = append(batch, t)
			capTaken = true
			continue
		}
		if !capTaken {
			slots--
		}
		if slots > 0 {
			batch = append(batch, t)
		} else {
			keep = append(keep, t)
		}
	}
	g.batchBuf, g.keepBuf = batch, keep
	if len(batch) < cap && head.WindowMS > 0 {
		deadline := head.enqueuedAt + sim.Time(head.WindowMS)
		if g.sim.Now() < deadline {
			// Re-assemble the original queue order and wait out the window.
			q := g.queue[:0]
			q = append(q, batch...)
			q = append(q, keep...)
			g.queue = q
			g.sim.AtCall(deadline, fireGPULaunch, g)
			return
		}
	}
	g.queue = append(g.queue[:0], keep...)

	lvl := g.spec.DVFS[g.level]
	latMS := head.LatencyMS
	powerRef := head
	for _, t := range batch {
		if t.LatencyMS > latMS {
			latMS = t.LatencyMS
			powerRef = t
		}
	}
	dur := sim.Time(latMS / lvl.FreqScale * g.Perturb(powerRef.ImplID))
	if s := g.execScale(powerRef.ImplID); s != 1 {
		dur = sim.Time(float64(dur) * s)
	}
	g.launches++
	g.tasks += len(batch)
	g.busyMS += float64(dur)
	if g.onLaunch != nil {
		g.onLaunch(len(batch), cap)
	}
	start := g.sim.Now()
	if g.obs != nil {
		g.obs.Launched(g.name, head.Kernel, powerRef.ImplID, len(batch), start, start+dur)
	}
	for _, t := range batch {
		t.started(start)
	}
	g.running = true
	g.notifyBusy(1)
	active := g.spec.IdlePowerW + (powerRef.PowerW-g.spec.IdlePowerW)*lvl.PowerScale
	g.setPower(active)
	g.freeAt = g.sim.Now() + dur
	// The batch stays parked in g.batchBuf until fireGPUDone walks it;
	// g.running guarantees no second launch reuses the buffer meanwhile.
	g.sim.AfterCall(dur, fireGPUDone, g)
}

// NextFreeAt reports when the board could start another launch, counting
// the queue's accumulated work at the current DVFS point.
func (g *GPUDevice) NextFreeAt() sim.Time {
	at := g.sim.Now()
	if g.running && g.freeAt > at {
		at = g.freeAt
	}
	lvl := g.spec.DVFS[g.level]
	// Pending queue work, batch-compressed: each implementation's queued
	// tasks coalesce into ceil(n/batch) launches. Groups accumulate in
	// first-seen order in a reusable scratch slice (a handful of kernels
	// at most, so the linear lookup beats a map and allocates nothing).
	groups := g.nfaGroups[:0]
	for _, t := range g.queue {
		gi := -1
		for i := range groups {
			if groups[i].kernel == t.Kernel {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, gpuGroup{kernel: t.Kernel, cap: 1})
			gi = len(groups) - 1
		}
		gr := &groups[gi]
		if t.Batch > gr.cap {
			gr.cap = t.Batch
		}
		if t.LatencyMS > gr.lat {
			gr.lat = t.LatencyMS
		}
		gr.n++
	}
	g.nfaGroups = groups
	for i := range groups {
		gr := &groups[i]
		launches := (gr.n + gr.cap - 1) / gr.cap
		at += sim.Time(float64(launches) * gr.lat / lvl.FreqScale)
	}
	return at
}

// QueueLen returns waiting plus running launches.
func (g *GPUDevice) QueueLen() int {
	n := len(g.queue)
	if g.running {
		n++
	}
	return n
}

// Perturb implements Accelerator with a ±4 % deterministic noise band.
func (g *GPUDevice) Perturb(implID string) float64 { return perturb(g.name, implID, 0.04) }

// FPGADevice simulates one FPGA board: a request pipeline for the loaded
// bitstream, with reconfiguration when the implementation changes and a
// low-power shell state for idle periods.
type FPGADevice struct {
	accelBase
	spec   FPGASpec
	loaded string // ImplID of the resident bitstream; "" = blank shell
	// noise is Perturb(loaded), recomputed by load whenever the resident
	// bitstream changes. drain only starts a task whose impl is loaded,
	// so it reads this instead of hashing per task.
	noise     float64
	lowPower  bool
	queue     []*Task
	inflight  int
	nextInit  sim.Time
	draining  bool
	reconfigs int
	// abortStreak counts consecutive injected bitstream-load aborts; the
	// third in a row fails the head task instead of burning the board on
	// reconfiguration retries forever.
	abortStreak int
}

// NewFPGA attaches a simulated FPGA board to a simulator.
func NewFPGA(s *sim.Simulator, name string, spec FPGASpec) *FPGADevice {
	f := &FPGADevice{accelBase: accelBase{name: name, sim: s}, spec: spec}
	f.noise = f.Perturb("")
	f.setPower(spec.IdlePowerW)
	return f
}

// Class returns FPGA.
func (f *FPGADevice) Class() Class { return FPGA }

// Loaded returns the resident implementation ID ("" when blank).
func (f *FPGADevice) Loaded() string { return f.loaded }

// EnterLowPower clock-gates the idle fabric, cutting idle draw by 40 %
// while keeping the resident bitstream (so the next request pays no
// reconfiguration). No-op while work is queued or in flight.
func (f *FPGADevice) EnterLowPower() {
	if f.inflight > 0 || len(f.queue) > 0 {
		return
	}
	f.lowPower = true
	f.setPower(f.spec.IdlePowerW * 0.6)
}

// Reconfigs returns how many bitstream loads the board performed
// (including background preloads).
func (f *FPGADevice) Reconfigs() int { return f.reconfigs }

// Idle reports whether the board has no queued or in-flight work.
func (f *FPGADevice) Idle() bool { return f.inflight == 0 && len(f.queue) == 0 && !f.draining }

// Preload flashes a bitstream onto an idle board in the background, so
// the implementation is resident before any request needs it. No-op if
// the board has work, is mid-reconfiguration, or already holds implID.
func (f *FPGADevice) Preload(implID string) {
	if !f.Idle() || f.loaded == implID || implID == "" {
		return
	}
	f.reconfigs++
	if f.obs != nil {
		f.obs.ReconfigStart(f.name, implID, f.sim.Now(), f.spec.ReconfigMS, true)
	}
	f.lowPower = false
	f.draining = true // block submissions from racing the flash
	f.setPower(f.spec.IdlePowerW + 0.3*(f.spec.PeakPowerW-f.spec.IdlePowerW))
	if f.fault != nil && f.fault.ReconfigAborts(f.name, implID, f.sim.Now()) {
		// Aborted background flash: the stall is paid, the fabric comes
		// up blank, and the governor's next provisioning pass retries.
		f.load("")
	} else {
		f.load(implID)
	}
	f.nextInit = f.sim.Now() + sim.Time(f.spec.ReconfigMS)
	f.sim.At(f.nextInit, func() {
		f.draining = false
		if f.inflight == 0 && len(f.queue) == 0 {
			f.setPower(f.spec.IdlePowerW)
		} else {
			f.drain()
		}
	})
}

// load makes implID the resident bitstream ("" = blank fabric), memoizes
// its execution noise, and reports a residency change to the resource
// observer.
func (f *FPGADevice) load(implID string) {
	if f.loaded == implID {
		return
	}
	f.loaded = implID
	f.noise = f.Perturb(implID)
	if f.res != nil {
		f.res.BitstreamResident(f.name, implID, f.sim.Now())
	}
}

// Submit enqueues a task; it starts as soon as the pipeline's initiation
// interval and any needed reconfiguration allow. A board inside an
// injected failure window rejects the submission outright.
func (f *FPGADevice) Submit(t *Task) {
	if f.down() {
		f.failTask(t)
		return
	}
	f.queue = append(f.queue, t)
	if !f.draining {
		f.drain()
	}
}

// drain starts queued tasks respecting reconfiguration and the II.
func (f *FPGADevice) drain() {
	if f.down() {
		// The board failed while work was queued: flush everything. The
		// owners' TaskFailed callbacks re-place the tasks on healthy boards.
		q := f.queue
		f.queue = nil
		f.draining = false
		if f.inflight == 0 {
			f.setPower(f.spec.IdlePowerW)
		}
		for _, t := range q {
			f.failTask(t)
		}
		return
	}
	if len(f.queue) == 0 {
		f.draining = false
		if f.inflight == 0 {
			f.setPower(f.spec.IdlePowerW)
		}
		return
	}
	f.draining = true
	t := f.queue[0]

	if f.loaded != t.ImplID {
		// Reconfigure, then retry the drain. The fault layer may abort
		// the load: the stall is paid but the fabric comes up blank, and
		// the next drain retries — a third consecutive abort fails the
		// head task instead of reconfiguring forever.
		aborted := f.fault != nil && f.fault.ReconfigAborts(f.name, t.ImplID, f.sim.Now())
		if aborted && f.abortStreak >= 2 {
			f.popHead()
			f.abortStreak = 0
			f.failTask(t)
			f.drain()
			return
		}
		f.reconfigs++
		if f.obs != nil {
			f.obs.ReconfigStart(f.name, t.ImplID, f.sim.Now(), f.spec.ReconfigMS, false)
		}
		f.lowPower = false
		f.setPower(f.spec.IdlePowerW + 0.3*(f.spec.PeakPowerW-f.spec.IdlePowerW))
		if aborted {
			f.abortStreak++
			f.load("")
		} else {
			f.abortStreak = 0
			f.load(t.ImplID)
		}
		f.nextInit = f.sim.Now() + sim.Time(f.spec.ReconfigMS)
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
		return
	}
	now := f.sim.Now()
	if now < f.nextInit {
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
		return
	}
	f.popHead()
	noise := f.noise
	if s := f.execScale(t.ImplID); s != 1 {
		noise *= s
	}
	lat := sim.Time(t.LatencyMS * noise)
	ii := sim.Time(t.IntervalMS * noise)
	if ii <= 0 || ii > lat {
		ii = lat
	}
	f.inflight++
	if f.inflight == 1 {
		f.notifyBusy(1)
	}
	f.setPower(t.PowerW)
	f.nextInit = now + ii
	if f.obs != nil {
		f.obs.Launched(f.name, t.Kernel, t.ImplID, 1, now, now+lat)
	}
	t.started(now)
	t.fpga = f
	f.sim.AfterCall(lat, fireFPGATaskDone, t)
	if len(f.queue) > 0 {
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
	} else {
		f.draining = false
	}
}

// popHead removes the queue's head in place. Re-slicing from index 1
// would walk the slice's start through its storage, so nearly every later
// Submit would have to grow it again.
func (f *FPGADevice) popHead() {
	n := copy(f.queue, f.queue[1:])
	f.queue[n] = nil
	f.queue = f.queue[:n]
}

func fireFPGADrain(_ sim.Time, a any) { a.(*FPGADevice).drain() }

func fireFPGATaskDone(now sim.Time, a any) {
	t := a.(*Task)
	f := t.fpga
	t.fpga = nil
	f.inflight--
	if f.inflight == 0 {
		f.notifyBusy(0)
	}
	t.done(now)
	if f.inflight == 0 && len(f.queue) == 0 {
		f.setPower(f.spec.IdlePowerW)
	}
}

// NextFreeAt reports when a new task could initiate, including pending
// reconfiguration and queued initiations.
func (f *FPGADevice) NextFreeAt() sim.Time {
	at := f.sim.Now()
	if f.nextInit > at {
		at = f.nextInit
	}
	for _, t := range f.queue {
		ii := t.IntervalMS
		if ii <= 0 || ii > t.LatencyMS {
			ii = t.LatencyMS
		}
		at += sim.Time(ii)
	}
	return at
}

// QueueLen returns waiting plus in-flight tasks.
func (f *FPGADevice) QueueLen() int { return len(f.queue) + f.inflight }

// Perturb implements Accelerator with a ±5 % deterministic noise band.
func (f *FPGADevice) Perturb(implID string) float64 { return perturb(f.name, implID, 0.05) }

var (
	_ Accelerator = (*GPUDevice)(nil)
	_ Accelerator = (*FPGADevice)(nil)
)

// String describes the board for logs.
func (g *GPUDevice) String() string {
	return fmt.Sprintf("%s(%s)", g.name, g.spec.Name)
}

// String describes the board for logs.
func (f *FPGADevice) String() string {
	return fmt.Sprintf("%s(%s)", f.name, f.spec.Name)
}
