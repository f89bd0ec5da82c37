// Package sched implements Poly's runtime kernel scheduler (Section V).
//
// Given an application's kernel DAG G = (K, E), the per-kernel design
// spaces from DSE, and the node's current device states, the scheduler
// plans one request in two steps:
//
//	Step 1 — latency optimization: kernels are ranked by the latency
//	priority W_L (Eq. 2-3, a HEFT-style upward rank) and placed one by
//	one on the (implementation, device) pair with the earliest finish
//	time, using per-device earliest-start-time bookkeeping (Eq. 4).
//
//	Step 2 — energy optimization: the latency slack LB − L is spent by
//	re-ranking kernels with the energy priority W_E (Eq. 5) and greedily
//	swapping in more energy-efficient implementations (possibly on the
//	other accelerator family) as long as the bound still holds.
//
// The package also provides the static baseline planner used by the
// Homo-GPU/Homo-FPGA systems of Sirius [4]: a fixed hard mapping of all
// kernels onto one accelerator family with a single implementation.
package sched

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/model"
	"poly/internal/opencl"
)

// DeviceState is the scheduler's view of one accelerator at planning time.
type DeviceState struct {
	// Name identifies the board within the node; names in one call's
	// device slice must be distinct. The planners address boards by their
	// position in that slice and publish only the name.
	Name string
	// Class is GPU or FPGA.
	Class device.Class
	// FreeAtMS is when the board can start new work, relative to the
	// planning instant (the T_queue(d_n) of Eq. 4).
	FreeAtMS float64
	// LoadedImpl is the FPGA's resident bitstream ID ("" if blank or GPU).
	LoadedImpl string
	// ReconfigMS is the FPGA reconfiguration penalty when LoadedImpl
	// differs from the impl being placed (0 for GPUs).
	ReconfigMS float64
	// FreqScale scales execution time for the board's current DVFS point
	// (1 for nominal; 0 is treated as 1).
	FreqScale float64
	// lastEndMS is planner-internal: the finish time of the last kernel
	// this plan placed on the board. A different implementation cannot
	// start before it (no cross-bitstream pipelining, no cross-kernel
	// batching); the same implementation may share from FreeAtMS.
	lastEndMS float64
	// loaded is planner-internal: LoadedImpl resolved to the planner's
	// implementation (nil when blank or outside its design spaces). It is
	// resolved once per call, and commit moves it to each implementation
	// the plan books, so the planning loops never compare an ID.
	loaded *model.Impl
}

// availableAt returns when a task of implementation im could start on the
// device, given what this plan already booked: the resident
// implementation may share the board from FreeAtMS, any other waits for
// the plan's last booking there too.
func (d *DeviceState) availableAt(im *model.Impl) float64 {
	if d.sameImpl(im) {
		return d.FreeAtMS
	}
	if d.lastEndMS > d.FreeAtMS {
		return d.lastEndMS
	}
	return d.FreeAtMS
}

// sameImpl reports whether im is the device's resident implementation. It
// compares the resolved residency, not ID strings: a planner interns every
// implementation it places, so the resident ID resolves to im exactly when
// it is im's ID.
func (d *DeviceState) sameImpl(im *model.Impl) bool {
	return d.loaded != nil && d.loaded == im
}

func (d *DeviceState) freq() float64 {
	if d.FreqScale <= 0 {
		return 1
	}
	return d.FreqScale
}

// execMS returns the planning-time execution estimate of im on d,
// including a reconfiguration penalty when the resident bitstream differs.
func (d *DeviceState) execMS(im *model.Impl) float64 {
	t := im.LatencyMS / d.freq()
	if d.Class == device.FPGA && !d.sameImpl(im) {
		t += d.ReconfigMS
	}
	return t
}

// groupExecMS prices an admission group of n requests all executing this
// kernel under im on d — the completion estimate of the LAST member.
// Batched GPU variants absorb the group in ceil(n/cap) shared launches,
// so co-executing there is near-free; FPGA members pipeline behind each
// other at one initiation interval each. n == 1 is exactly execMS, so
// single-request planning is untouched.
func (d *DeviceState) groupExecMS(im *model.Impl, n int) float64 {
	t := d.execMS(im)
	if n <= 1 {
		return t
	}
	if d.Class == device.GPU {
		cap := int(batchCap(im))
		launches := (n + cap - 1) / cap
		return t + float64(launches-1)*im.LatencyMS/d.freq()
	}
	lat := im.LatencyMS / d.freq()
	ii := im.IntervalMS / d.freq()
	if ii <= 0 || ii > lat {
		ii = lat
	}
	return t + float64(n-1)*ii
}

// commitMS returns the marginal device occupancy of one request under im:
// latency/fill on a GPU (the launch is shared by the requests expected to
// batch with it), reconfiguration plus one initiation interval on a
// pipelined FPGA.
func (d *DeviceState) commitMS(im *model.Impl, fill float64) float64 {
	if d.Class == device.GPU {
		if fill < 1 {
			fill = 1
		}
		return im.LatencyMS / d.freq() / fill
	}
	lat := im.LatencyMS / d.freq()
	ii := im.IntervalMS / d.freq()
	if ii <= 0 || ii > lat {
		ii = lat
	}
	if !d.sameImpl(im) {
		ii += d.ReconfigMS
	}
	return ii
}

// ImplID is the canonical identity of an implementation, shared with the
// device simulators (batching and reconfiguration key). It is a thin
// accessor over the interned model.Impl.ID — every Impl built by the
// model evaluators carries its identity precomputed, so this is a field
// read on the hot path. Hand-constructed Impls (tests) fall back to
// rendering the identity without interning it.
func ImplID(im *model.Impl) string {
	if im.ID != "" {
		return im.ID
	}
	return im.Kernel + "|" + im.Board + "|" + im.Config.String()
}

// Assignment is one kernel's placement in a plan.
type Assignment struct {
	Kernel  string
	Impl    *model.Impl
	Device  string
	StartMS float64
	EndMS   float64
	// ExecMS is the pure execution span; EndMS − StartMS − ExecMS is the
	// FPGA reconfiguration the placement paid, if any.
	ExecMS float64
	// CommitMS is the marginal device-time this request consumes: a
	// batched GPU launch shares its latency across the batch, and a
	// pipelined FPGA admits a new request every initiation interval, so
	// queue bookkeeping advances by less than the request's own span.
	CommitMS float64
}

// Plan is a complete placement of one request's kernel DAG.
type Plan struct {
	// Assignments holds one placement per kernel, indexed by the kernel's
	// declaration order in the program.
	Assignments []Assignment
	// MakespanMS is the planned end-to-end latency L.
	MakespanMS float64
	// EnergyMJ is Σ power × busy-time over the assignments.
	EnergyMJ float64
	// BoundMS is the latency bound LB the plan was built against.
	BoundMS float64
	// EnergySwaps counts Step-2 implementation replacements applied.
	EnergySwaps int
	// order is Assignments sorted by planned start time, built with the
	// plan. Programs of up to len(orderBuf) kernels (every shipped
	// application has at most 4) keep it in orderBuf, inside the Plan's
	// own allocation, so publishing a plan costs two allocations.
	order    []*Assignment
	orderBuf [8]*Assignment
	// sealed marks the plan frozen for zero-copy sharing via the plan
	// cache; sum is its plancheck fingerprint (see plancache.go).
	sealed bool
	sum    uint64
}

// SlackMS returns LB − L (negative when the bound is missed).
func (p *Plan) SlackMS() float64 { return p.BoundMS - p.MakespanMS }

// Order returns the assignments sorted by planned start time, then kernel
// name. The serving loop walks every admitted request's plan in this
// order, so it is built once when the plan is published. Callers must not
// mutate the result.
func (p *Plan) Order() []*Assignment { return p.order }

// Assignment returns the kernel's placement, or nil if the plan has none.
func (p *Plan) Assignment(kernel string) *Assignment {
	for i := range p.Assignments {
		if p.Assignments[i].Kernel == kernel {
			return &p.Assignments[i]
		}
	}
	return nil
}

// newPlan publishes a finished placement, one assignment per kernel in
// declaration order, as a Plan with its start order. Both planners
// publish through it.
func newPlan(slab []Assignment, boundMS, makespanMS, energyMJ float64, swaps int) *Plan {
	p := &Plan{Assignments: make([]Assignment, len(slab)), BoundMS: boundMS,
		MakespanMS: makespanMS, EnergyMJ: energyMJ, EnergySwaps: swaps}
	copy(p.Assignments, slab)
	p.order = p.orderBuf[:0]
	if len(slab) > len(p.orderBuf) {
		p.order = make([]*Assignment, 0, len(slab))
	}
	// Insertion sort: plans hold a handful of kernels, and the comparator
	// is total (kernel names are unique), so the order is the one any
	// sort would produce.
	for i := range p.Assignments {
		a := &p.Assignments[i]
		j := len(p.order)
		p.order = append(p.order, a)
		for ; j > 0 && startsBefore(a, p.order[j-1]); j-- {
			p.order[j] = p.order[j-1]
		}
		p.order[j] = a
	}
	return p
}

// startsBefore orders assignments by planned start time, then kernel name.
func startsBefore(a, b *Assignment) bool {
	if c := cmp.Compare(a.StartMS, b.StartMS); c != 0 {
		return c < 0
	}
	return a.Kernel < b.Kernel
}

// Scheduler plans requests of one program over a node's devices.
type Scheduler struct {
	prog   *opencl.Program
	spaces *dse.KernelSpaces
	pcie   device.PCIeSpec
	// loadRPS is the monitor's recent arrival-rate estimate, used to
	// predict how full GPU batches will run: at λ RPS a launch of
	// latency T accumulates ≈ λ·T requests, so a batched variant's
	// per-request cost is its batch latency divided by that fill.
	loadRPS float64
	// tpMode switches placement scoring to sustained-throughput terms
	// (marginal occupancy weighted over single-request finish) and mutes
	// the energy step — the "boost to higher performance mode" reaction
	// of Section VI-C when load spikes.
	tpMode bool
	// slack is the fraction of the latency bound Step 2 may plan into.
	// The paper "conservatively relax[es] the latency slack": planning a
	// request to finish exactly at LB leaves no headroom for queueing
	// jitter or model error, so energy swaps target slack × LB instead.
	slack float64
	// batchN is the admission batcher's group size hint: when the runtime
	// plans a staged group of n compatible requests as one unit, batched
	// GPU variants are guaranteed at least n requests per launch, so the
	// fill floor rises from the stochastic λ·T estimate to the known group
	// size. 1 (the default) is single-request planning and leaves every
	// prediction exactly as before.
	batchN int
	// maxGPUBatch caches the widest GPU batch capacity across the Step-1
	// candidate lists, computed once at construction — the natural upper
	// bound for admission-side group sizes.
	maxGPUBatch int
	// order caches the W_L-descending kernel order.
	order []string
	// wl caches the latency priorities.
	wl map[string]float64
	// resid interns implementation identities (New registers every
	// frontier implementation) and resolves the boards' resident
	// bitstreams once per call, for the planning loops and the plan key.
	resid residencies
	// gpuCands precomputes the Step-1 GPU candidate list per kernel
	// (min-latency variant plus, when distinct, the max-throughput
	// batched variant) so placement loops never allocate or rescan the
	// frontier.
	gpuCands map[string][]*model.Impl

	// healthEpoch is the runtime's board-health generation counter,
	// folded into the plan-cache key: any health transition (a board
	// marked suspect, down, or recovered) bumps it, so plans memoized
	// under the old health view can never place work on a dead board
	// even if the visible device vector happens to match.
	healthEpoch uint64

	// cache memoizes full plans by exact device-state + mode signature;
	// nil when disabled. keyBuf is the reused key scratch buffer.
	cache  *PlanCache
	keyBuf []byte
	// scratchBase/scratchWork are the per-call device working copies,
	// reused across Schedule calls so steady serving allocates nothing
	// for device bookkeeping.
	scratchBase, scratchWork []DeviceState
	// ckpt holds the current placement's checkpoints, one device vector
	// per position of orderIdx (see checkpoint); trialDevs is a trial's
	// device scratch, and swapsBuf backs rankedSwaps' candidate list.
	ckpt, trialDevs []DeviceState
	swapsBuf        []rankedSwap
	// trials counts Step 1.5/2 trials and trialKernels the kernels they
	// replayed (see TrialStats).
	trials, trialKernels int

	// knames/kidx intern the program's kernel names to dense indices in
	// declaration order; orderIdx is the W_L-descending priority order
	// expressed in those indices. All planning inner loops are keyed by
	// index so a cold plan touches no maps and allocates nothing until
	// the final published Plan is built.
	knames   []string
	kidx     map[string]int32
	orderIdx []int32
	// predsIdx precomputes each kernel's predecessor edges — with the
	// PCIe transfer time already priced — in declaration-edge order,
	// matching Program.Preds exactly.
	predsIdx [][]predEdge
	// paretoGPU/paretoFPGA/gpuCandsIdx are the per-kernel candidate
	// implementation lists resolved to indices once at construction.
	paretoGPU   [][]*model.Impl
	paretoFPGA  [][]*model.Impl
	gpuCandsIdx [][]*model.Impl
	// swapTab is Step 2's flat candidate table, indexed [kernel][class]:
	// each kernel's frontier on that class with the fields rankedSwaps
	// reads held by value.
	swapTab [][2][]swapImpl
	// states are the current/trial/best placements the two-step planner
	// double-buffers between; empty is a permanently unplaced placement
	// for single-kernel placement (PlaceKernel).
	states [3]planState
	empty  planState
}

// swapImpl is one swap-table entry: a frontier implementation and the
// values Step 2 ranks it by.
type swapImpl struct {
	impl      *model.Impl
	latencyMS float64
	powerW    float64
	batch     int
}

// predEdge is one interned predecessor edge.
type predEdge struct {
	from       int32
	transferMS float64
}

// planState is one in-progress placement: a flat per-kernel-index slab of
// assignment values (Impl == nil while unplaced), each placed kernel's
// device position in the call's device slice, and the running totals.
// The planner owns three and double-buffers trial placements between
// them, so repair and energy rounds allocate nothing.
type planState struct {
	slab       []Assignment
	pos        []int32
	makespanMS float64
	energyMJ   float64
}

func (st *planState) reset(nk int) {
	if cap(st.slab) < nk {
		st.slab = make([]Assignment, nk)
		st.pos = make([]int32, nk)
	} else {
		st.slab = st.slab[:nk]
		st.pos = st.pos[:nk]
		clear(st.slab)
		clear(st.pos)
	}
	st.makespanMS, st.energyMJ = 0, 0
}

func (st *planState) copyFrom(src *planState) {
	st.slab = append(st.slab[:0], src.slab...)
	st.pos = append(st.pos[:0], src.pos...)
	st.makespanMS, st.energyMJ = src.makespanMS, src.energyMJ
}

// New builds a scheduler for a program and its explored design spaces.
func New(prog *opencl.Program, spaces *dse.KernelSpaces) (*Scheduler, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	for _, k := range prog.Kernels() {
		if spaces.Space(k.Name, device.GPU) == nil && spaces.Space(k.Name, device.FPGA) == nil {
			return nil, fmt.Errorf("sched: kernel %q has no design space", k.Name)
		}
	}
	s := &Scheduler{prog: prog, spaces: spaces, pcie: device.DefaultPCIe, slack: defaultSlackFactor,
		batchN:   1,
		resid:    newResidencies(),
		gpuCands: make(map[string][]*model.Impl),
		cache:    newPlanCache(defaultPlanCacheCapacity)}
	for _, k := range prog.Kernels() {
		for _, class := range []device.Class{device.GPU, device.FPGA} {
			if sp := spaces.Space(k.Name, class); sp != nil {
				for _, im := range sp.Pareto {
					s.resid.intern(ImplID(im), im)
				}
			}
		}
		if sp := spaces.Space(k.Name, device.GPU); sp != nil && len(sp.Pareto) > 0 {
			cands := sp.Pareto[:1]
			if thr := sp.MaxThroughput(); thr != nil && thr != sp.Pareto[0] {
				cands = []*model.Impl{sp.Pareto[0], thr}
			}
			s.gpuCands[k.Name] = cands
			for _, im := range cands {
				if im.Config.Batch > s.maxGPUBatch {
					s.maxGPUBatch = im.Config.Batch
				}
			}
		}
	}
	s.computePriorities()
	s.buildIndex()
	return s, nil
}

// buildIndex interns the program's kernels and resolves every per-kernel
// lookup (priority order, predecessor edges, candidate lists) to dense
// indices, so the planning inner loops never consult a map.
func (s *Scheduler) buildIndex() {
	s.knames, s.kidx, s.predsIdx = internKernels(s.prog, s.pcie)
	nk := len(s.knames)
	s.orderIdx = make([]int32, len(s.order))
	for i, name := range s.order {
		s.orderIdx[i] = s.kidx[name]
	}
	s.paretoGPU = make([][]*model.Impl, nk)
	s.paretoFPGA = make([][]*model.Impl, nk)
	s.gpuCandsIdx = make([][]*model.Impl, nk)
	s.swapTab = make([][2][]swapImpl, nk)
	for i, name := range s.knames {
		if sp := s.spaces.Space(name, device.GPU); sp != nil {
			s.paretoGPU[i] = sp.Pareto
		}
		if sp := s.spaces.Space(name, device.FPGA); sp != nil {
			s.paretoFPGA[i] = sp.Pareto
		}
		s.gpuCandsIdx[i] = s.gpuCands[name]
		for _, c := range [...]device.Class{device.GPU, device.FPGA} {
			for _, im := range s.candidatesIdx(int32(i), c) {
				s.swapTab[i][c] = append(s.swapTab[i][c],
					swapImpl{impl: im, latencyMS: im.LatencyMS, powerW: im.PowerW, batch: im.Config.Batch})
			}
		}
	}
	s.empty.reset(nk)
}

// internKernels interns a program's kernels to dense indices in
// declaration order, with each kernel's predecessor edges — the PCIe
// transfer already priced — in declaration-edge order, matching
// Program.Preds exactly.
func internKernels(prog *opencl.Program, pcie device.PCIeSpec) ([]string, map[string]int32, [][]predEdge) {
	ks := prog.Kernels()
	names := make([]string, len(ks))
	kidx := make(map[string]int32, len(ks))
	for i, k := range ks {
		names[i] = k.Name
		kidx[k.Name] = int32(i)
	}
	preds := make([][]predEdge, len(ks))
	for i, name := range names {
		for _, e := range prog.Preds(name) {
			preds[i] = append(preds[i], predEdge{from: kidx[e.From], transferMS: pcie.TransferMS(e.Bytes)})
		}
	}
	return names, kidx, preds
}

// candidatesIdx returns the Pareto implementations for a kernel index on
// a device class.
func (s *Scheduler) candidatesIdx(ki int32, class device.Class) []*model.Impl {
	if class == device.GPU {
		return s.paretoGPU[ki]
	}
	if class == device.FPGA {
		return s.paretoFPGA[ki]
	}
	return nil
}

// SetPlanCacheCapacity resizes the plan cache to hold up to n memoized
// plans (dropping all current entries and counters); n <= 0 disables
// caching entirely, which is useful for equivalence testing and for
// callers that present never-repeating device states.
func (s *Scheduler) SetPlanCacheCapacity(n int) { s.cache = newPlanCache(n) }

// PlanCacheStats reports the plan cache's hit/miss counters (zeros when
// the cache is disabled).
func (s *Scheduler) PlanCacheStats() (hits, misses int) { return s.cache.Stats() }

// PlanCacheLen reports how many distinct device-state signatures are
// currently memoized.
func (s *Scheduler) PlanCacheLen() int { return s.cache.Len() }

// SetHealthEpoch folds the runtime's board-health generation into the
// plan-cache key. Planning itself never reads it — the runtime already
// excludes unhealthy boards from the device vector — but keying on it
// guarantees a health transition invalidates every memoized plan.
func (s *Scheduler) SetHealthEpoch(e uint64) { s.healthEpoch = e }

// defaultSlackFactor leaves 30 % of the bound as queueing headroom.
const defaultSlackFactor = 0.6

// SetSlackFactor adjusts how much of the latency bound Step 2 may plan
// into, clamped to [0.1, 1]; NaN leaves the factor unchanged. The
// runtime's monitor feedback tightens it when observed tails approach the
// bound and restores it when load subsides (Section VI-C's
// self-correction loop).
func (s *Scheduler) SetSlackFactor(f float64) {
	if math.IsNaN(f) {
		return
	}
	if f < 0.1 {
		f = 0.1
	}
	if f > 1 {
		f = 1
	}
	s.slack = f
}

// SlackFactor returns the current Step-2 planning headroom.
func (s *Scheduler) SlackFactor() float64 { return s.slack }

// SetThroughputMode toggles high-load placement scoring: under pressure
// the scheduler values a device's marginal occupancy (batch/pipeline
// sharing) three times as much as the individual request's finish time,
// and stops spending slack on energy swaps.
func (s *Scheduler) SetThroughputMode(on bool) { s.tpMode = on }

// ThroughputMode reports the current mode.
func (s *Scheduler) ThroughputMode() bool { return s.tpMode }

// SetLoadHint feeds the monitor's arrival-rate estimate (requests per
// second) into the scheduler's batch-fill predictions. The hint is
// quantized to whole RPS: the monitor's estimate is integral arrivals
// over a fixed window (so quantization is exact for the governor), and
// bucketing keeps float jitter in ad-hoc hints from fragmenting the
// plan-cache key space. Negative and NaN hints read as 0.
func (s *Scheduler) SetLoadHint(rps float64) {
	if !(rps >= 0) {
		rps = 0
	}
	s.loadRPS = math.Round(rps)
}

// SetBatchSize feeds the admission batcher's group size into fill
// predictions: a staged group of n compatible requests submits together,
// so batched GPU variants are known — not just expected — to share each
// launch among at least n requests (up to the implementation's cap).
// Values below 1 clamp to 1, which restores single-request planning.
// Like the load hint, the value is folded into the plan-cache key, so
// group plans and single-request plans never alias.
func (s *Scheduler) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	s.batchN = n
}

// BatchSize reports the current group-size hint.
func (s *Scheduler) BatchSize() int { return s.batchN }

// MaxGPUBatch returns the widest GPU batch capacity across the program's
// Step-1 candidate implementations — the point past which a larger
// admission group cannot amortize further launches. At least 1, even for
// FPGA-only programs.
func (s *Scheduler) MaxGPUBatch() int {
	if s.maxGPUBatch < 1 {
		return 1
	}
	return s.maxGPUBatch
}

// batchCap returns the implementation's full batch capacity as a float.
// Queue bookkeeping uses the optimistic full-batch marginal cost: under
// the loads where queues matter, batches do fill.
func batchCap(im *model.Impl) float64 {
	if im.Config.Batch < 1 {
		return 1
	}
	return float64(im.Config.Batch)
}

// expectedFill predicts how many requests share one launch of im: the
// arrivals during one batch latency, at least 1, at most the batch cap.
// When planning for an admission group (batchN > 1) the group size is a
// guaranteed floor — those requests submit at the same instant — so the
// fill is at least min(batchN, cap) regardless of the load estimate.
func (s *Scheduler) expectedFill(im *model.Impl) float64 {
	return s.fill(im.LatencyMS, im.Config.Batch)
}

// fill is expectedFill on an implementation's latency and batch capacity.
func (s *Scheduler) fill(latencyMS float64, b int) float64 {
	if b <= 1 {
		return 1
	}
	fill := s.loadRPS * latencyMS / 1000
	if g := float64(s.batchN); g > fill {
		fill = g
	}
	if fill < 1 {
		return 1
	}
	if fill > float64(b) {
		return float64(b)
	}
	return fill
}

// perRequestEnergyMJ is the energy one request is charged under im: the
// launch energy shared by the expected batch fill.
func (s *Scheduler) perRequestEnergyMJ(im *model.Impl, execMS float64) float64 {
	return im.PowerW * execMS / s.expectedFill(im)
}

// Program returns the scheduled program.
func (s *Scheduler) Program() *opencl.Program { return s.prog }

// LatencyPriority returns W_L(kernel) (Eq. 2), for inspection and tests.
func (s *Scheduler) LatencyPriority(kernel string) float64 { return s.wl[kernel] }

// minLatencyMS returns T_min(k_i) (Eq. 3): the minimum execution latency
// across every implementation on every platform.
func (s *Scheduler) minLatencyMS(kernel string) float64 {
	best := math.Inf(1)
	for _, class := range []device.Class{device.GPU, device.FPGA} {
		sp := s.spaces.Space(kernel, class)
		if sp == nil {
			continue
		}
		if im := sp.MinLatency(); im != nil && im.LatencyMS < best {
			best = im.LatencyMS
		}
	}
	return best
}

// transferMS returns T(e_ij): the PCIe time for the edge's bytes.
func (s *Scheduler) transferMS(e opencl.KernelEdge) float64 {
	return s.pcie.TransferMS(e.Bytes)
}

// computePriorities fills wl (Eq. 2) bottom-up and sorts kernels in
// descending priority; an upward rank guarantees predecessors come first.
func (s *Scheduler) computePriorities() {
	topo, err := s.prog.TopoSort()
	if err != nil {
		// New validated the program; a cycle here is a programming error.
		panic("sched: validated program failed toposort: " + err.Error())
	}
	s.wl = make(map[string]float64, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		k := topo[i]
		var succMax float64
		for _, e := range s.prog.Succs(k) {
			if v := s.transferMS(e) + s.wl[e.To]; v > succMax {
				succMax = v
			}
		}
		s.wl[k] = s.minLatencyMS(k) + succMax
	}
	s.order = append([]string(nil), topo...)
	sort.SliceStable(s.order, func(i, j int) bool {
		return s.wl[s.order[i]] > s.wl[s.order[j]]
	})
}

// ImplByID resolves an implementation identity from this scheduler's
// design spaces, or nil.
func (s *Scheduler) ImplByID(id string) *model.Impl {
	if c, ok := s.resid.byID[id]; ok {
		return s.resid.impls[c]
	}
	return nil
}

// baseCopy copies the caller's devices, resolved by resid.resolve, into
// the base scratch with their resident implementations; planning never
// mutates the caller's device view.
func (s *Scheduler) baseCopy(devices []DeviceState) []DeviceState {
	s.scratchBase = s.resid.copyResolved(s.scratchBase, devices)
	return s.scratchBase
}

// PreferredFPGAImpl returns the implementation the runtime should keep
// resident for a kernel on otherwise-idle FPGAs: the most energy-
// efficient frontier point. Background provisioning with it means a
// request never pays a foreground reconfiguration for this kernel.
func (s *Scheduler) PreferredFPGAImpl(kernel string) *model.Impl {
	sp := s.spaces.Space(kernel, device.FPGA)
	if sp == nil {
		return nil
	}
	fast := sp.MinLatency()
	if fast == nil {
		return nil
	}
	// The most efficient design that stays within 1.4× of the fastest:
	// residency locks the board to one bitstream, so a deeply-derated
	// variant would cost QoS whenever load returns.
	best := fast
	for _, im := range sp.Pareto {
		if im.LatencyMS <= 1.4*fast.LatencyMS &&
			im.EfficiencyRPSPerW() > best.EfficiencyRPSPerW() {
			best = im
		}
	}
	return best
}

// resident returns the implementation loaded on an FPGA if it implements
// the given kernel, else nil.
func resident(kernel string, d *DeviceState) *model.Impl {
	if d.Class != device.FPGA || d.loaded == nil || d.loaded.Kernel != kernel {
		return nil
	}
	return d.loaded
}

// evicts reports whether placing the kernel on d would replace another
// kernel's live FPGA bitstream.
func evicts(kernel string, d *DeviceState) bool {
	return d.Class == device.FPGA && d.loaded != nil && d.loaded.Kernel != kernel
}

// Schedule runs both optimization steps for one request. devices is the
// node's current state; boundMS is the application's latency bound LB
// (≤0 uses the program's bound). The returned plan never violates a bound
// that Step 1 alone could meet.
//
// Plans are memoized: when the node presents a device-state signature the
// scheduler has planned before — under the same bound, load hint, slack,
// and throughput mode — the cached plan itself is returned, zero-copy,
// and is bit-identical to what a cold planning run would produce, because
// planning is a pure function of exactly those inputs and all times are
// relative to the planning instant. Returned plans are immutable (sealed
// at insertion; the plancheck build tag turns mutation into a panic):
// callers keep per-request deviations in their own state.
func (s *Scheduler) Schedule(devices []DeviceState, boundMS float64) (*Plan, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("sched: no devices")
	}
	if boundMS <= 0 {
		boundMS = s.prog.LatencyBoundMS
	}
	s.resid.resolve(devices)
	if s.cache == nil {
		return s.scheduleCold(devices, boundMS)
	}
	return s.cache.memo(s.planKey(devices, boundMS), func() (*Plan, error) {
		return s.scheduleCold(devices, boundMS)
	})
}

// PlaceKernel plans a single kernel in isolation against the given device
// states — the runtime's retry path after a task failure, where only the
// lost kernel needs a new home and the rest of the request's DAG keeps
// its placements. It reuses Step 1's placement scoring (EFT plus marginal
// occupancy, resident-bitstream stickiness, eviction as a last resort)
// with no predecessor constraints: the failed kernel's inputs are already
// materialized, so it is ready now.
func (s *Scheduler) PlaceKernel(kernel string, devices []DeviceState) (*Assignment, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("sched: no devices")
	}
	ki, ok := s.kidx[kernel]
	var out Assignment
	found := false
	if ok {
		s.resid.resolve(devices)
		base := s.baseCopy(devices)
		found = s.findPlacement(ki, base, &s.empty, false, &out) >= 0 ||
			s.findPlacement(ki, base, &s.empty, true, &out) >= 0
	}
	if !found {
		return nil, fmt.Errorf("sched: kernel %q has no implementation on any available device", kernel)
	}
	a := out
	return &a, nil
}

// planKey renders the exact planning signature into the reused key
// buffer: mode fields first, then the device vector with its resolved
// residency codes.
func (s *Scheduler) planKey(devices []DeviceState, boundMS float64) []byte {
	b := s.keyBuf[:0]
	b = binary.LittleEndian.AppendUint64(b, s.healthEpoch)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(boundMS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.loadRPS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.slack))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.batchN))
	if s.tpMode {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendPlanKeyDevices(b, devices, s.resid.res)
	s.keyBuf = b
	return b
}

// scheduleCold runs the real two-step planner on devices resolved by
// resid.resolve. All intermediate state lives in the scheduler's reusable
// slabs; the only allocations are the published Plan (one struct, one
// backing array).
func (s *Scheduler) scheduleCold(devices []DeviceState, boundMS float64) (*Plan, error) {
	// Work on copies: Step 2 replays placements from the same initial
	// state. The copies live in reusable scratch buffers — nothing below
	// retains them past the call.
	base := s.baseCopy(devices)
	work := append(s.scratchWork[:0], base...)
	s.scratchWork = work

	cur, trial, best := &s.states[0], &s.states[1], &s.states[2]
	cur.reset(len(s.knames))

	// Step 1 — latency optimization.
	for _, ki := range s.orderIdx {
		if err := s.placeEFT(ki, work, cur); err != nil {
			return nil, err
		}
	}
	s.tally(cur)

	// Step 1.5 — latency repair: greedy per-kernel EFT can strand a DAG
	// behind one backlogged board. When the planned makespan misses the
	// bound, retry alternative (device, implementation) placements that
	// shorten it — the optimizer "mak[ing] an adjustment using the latest
	// feedback" when the plan is predicted to violate QoS.
	s.repairLatency(cur, trial, best, base, boundMS)

	// Step 2 — energy-efficiency optimization on the slack.
	swaps := s.optimizeEnergy(cur, trial, base, boundMS)
	return newPlan(cur.slab, boundMS, cur.makespanMS, cur.energyMJ, swaps), nil
}

// repairLatency iteratively moves kernels to the placement that most
// reduces the planned makespan while it exceeds the bound. Each round
// replays candidate moves into the trial placement and keeps the winner
// in best; a trial stops as soon as it cannot beat the round's best
// score, and nothing allocates.
func (s *Scheduler) repairLatency(cur, trial, best *planState, base []DeviceState, boundMS float64) {
	for round := 0; round < 16 && cur.makespanMS > boundMS; round++ {
		s.checkpoint(cur, base)
		bestFound := false
		bestScore := math.Inf(1)
		for p, ki := range s.orderIdx {
			a := &cur.slab[ki]
			if a.Impl == nil {
				continue
			}
			kernel := s.knames[ki]
			for di := range base {
				d := &base[di]
				all := s.candidatesIdx(ki, d.Class)
				if len(all) == 0 {
					continue
				}
				// Same candidate policy as placement: fastest variant,
				// plus the batched throughput variant on GPUs (a repair
				// under load must not flood the GPU with unbatchable
				// single-request launches), and only the resident
				// bitstream on FPGAs already serving this kernel.
				var candBuf [1]*model.Impl
				cands := all[:1]
				if d.Class == device.GPU {
					cands = s.gpuCandsIdx[ki]
				}
				if res := resident(kernel, d); res != nil {
					candBuf[0] = res
					cands = candBuf[:1]
				} else if evicts(kernel, d) {
					continue // repair must not evict live bitstreams either
				}
				for _, im := range cands {
					if im == a.Impl && int32(di) == cur.pos[ki] {
						continue
					}
					// Score repairs like placements: makespan plus the
					// marginal occupancy the move leaves behind, so a
					// batched variant is not beaten by a batch-1 variant
					// that finishes 2 ms sooner but hogs the device. A
					// trial stopped against the round's best score could
					// not have beaten it.
					pad := d.commitMS(im, batchCap(im))
					if !s.trial(cur, trial, p, swapCandidate{impl: im, dev: int32(di)}, pad, bestScore) {
						continue
					}
					score := trial.makespanMS + pad
					if !bestFound || score < bestScore {
						bestFound = true
						bestScore = score
						best.copyFrom(trial)
					}
				}
			}
		}
		if !bestFound || best.makespanMS >= cur.makespanMS {
			return
		}
		cur.copyFrom(best)
	}
}

// placeEFT assigns one kernel to the (impl, device) pair with the best
// finish-time score, respecting device queues and predecessors. The first
// pass never evicts another kernel's live FPGA bitstream (evictions under
// load cause reconfiguration storms); if no placement exists without an
// eviction, a second pass allows it.
func (s *Scheduler) placeEFT(ki int32, devices []DeviceState, st *planState) error {
	di := s.findPlacement(ki, devices, st, false, &st.slab[ki])
	if di < 0 {
		di = s.findPlacement(ki, devices, st, true, &st.slab[ki])
	}
	if di < 0 {
		return fmt.Errorf("sched: kernel %q has no implementation on any available device", s.knames[ki])
	}
	st.pos[ki] = di
	commit(&st.slab[ki], &devices[di])
	return nil
}

// findPlacement scores every (device, candidate) pair for one kernel,
// writes the winner into out and returns its device position, or -1 when
// no placement exists.
func (s *Scheduler) findPlacement(ki int32, devices []DeviceState, st *planState, allowEvict bool, out *Assignment) int32 {
	kernel := s.knames[ki]
	// Track the best placement in locals and write the Assignment once at
	// the end: the inner loop runs per (device, candidate) for every
	// kernel of every request.
	var (
		bestDi               int32 = -1
		bestScore                  = math.Inf(1)
		bestImpl             *model.Impl
		bestEst, bestEnd     float64
		bestExec, bestCommit float64
	)
	for di := range devices {
		d := &devices[di]
		impls := s.candidatesIdx(ki, d.Class)
		if len(impls) == 0 {
			continue
		}
		// Step 1 considers the min-latency implementation per device (the
		// paper picks "the kernel implementation with shorter latency on
		// the corresponding accelerator"). GPUs also offer their
		// max-throughput (batched) variant — batching is how a GPU keeps
		// its queue short under load. On an FPGA whose resident bitstream
		// already implements this kernel, the resident implementation is
		// used as-is: replacing a working bitstream with a marginally
		// different one would pay an 80 ms reconfiguration every time two
		// variants alternate.
		var candBuf [1]*model.Impl
		cands := impls[:1]
		if d.Class == device.GPU {
			cands = s.gpuCandsIdx[ki]
		}
		res := resident(kernel, d)
		evict := evicts(kernel, d)
		if res != nil {
			candBuf[0] = res
			cands = candBuf[:1]
		} else if evict && !allowEvict {
			continue // never evict a live bitstream in the first pass
		}
		ready := s.estMS(ki, int32(di), st)
		for _, im := range cands {
			est := ready
			if avail := d.availableAt(im); avail > est {
				est = avail
			}
			end := est + d.groupExecMS(im, s.batchN)
			// Score = completion + marginal occupancy: between two
			// placements finishing alike, prefer the one that leaves the
			// device freer (batched/pipelined variants). Eviction adds
			// the displaced kernel's future reconfiguration.
			commitWeight := 1.0
			if s.tpMode {
				commitWeight = 2
			}
			commit := d.commitMS(im, batchCap(im))
			score := end + commitWeight*commit
			if evict {
				score += d.ReconfigMS
			}
			if bestDi < 0 || score < bestScore {
				bestDi = int32(di)
				bestScore = score
				bestImpl = im
				bestEst, bestEnd = est, end
				bestExec, bestCommit = im.LatencyMS/d.freq(), commit
			}
		}
	}
	if bestDi >= 0 {
		*out = Assignment{Kernel: kernel, Impl: bestImpl, Device: devices[bestDi].Name,
			StartMS: bestEst, EndMS: bestEnd, ExecMS: bestExec, CommitMS: bestCommit}
	}
	return bestDi
}

// estMS computes the predecessor-readiness part of EST(k_i, d_n)
// (Eq. 4) on the device at position di: finish times plus PCIe transfers
// when crossing boards. The device-queue part is implementation-specific
// (availableAt).
func (s *Scheduler) estMS(ki, di int32, st *planState) float64 {
	est := 0.0
	for _, e := range s.predsIdx[ki] {
		pa := &st.slab[e.from]
		if pa.Impl == nil {
			continue // unplaced predecessor: upward rank order prevents this
		}
		ready := pa.EndMS
		if st.pos[e.from] != di {
			ready += e.transferMS
		}
		if ready > est {
			est = ready
		}
	}
	return est
}

// commit books the assignment on its device d, advancing the queue
// estimate by the request's marginal occupancy.
func commit(a *Assignment, d *DeviceState) {
	free := a.StartMS + a.CommitMS
	if free > d.FreeAtMS {
		d.FreeAtMS = free
	}
	if a.EndMS > d.lastEndMS {
		d.lastEndMS = a.EndMS
	}
	d.loaded = a.Impl
}

// tally recomputes a placement's makespan and energy totals. Sums run in
// the scheduler's fixed kernel order so identical placements produce
// bit-identical totals.
func (s *Scheduler) tally(st *planState) {
	st.makespanMS, st.energyMJ = 0, 0
	for _, ki := range s.orderIdx {
		a := &st.slab[ki]
		if a.Impl == nil {
			continue
		}
		if a.EndMS > st.makespanMS {
			st.makespanMS = a.EndMS
		}
		// Energy charges pure execution: reconfiguration is a one-time
		// cost amortized across the requests that reuse the bitstream,
		// so it shapes latency (EndMS) but not the steady-state energy
		// objective. Batched launches split their energy over the
		// expected fill.
		st.energyMJ += s.perRequestEnergyMJ(a.Impl, a.ExecMS)
	}
}

// optimizeEnergy is Step 2: iterate rounds of W_E-ranked implementation
// swaps, accepting the highest-ranked swap that keeps the plan within the
// bound and strictly reduces energy, until no swap survives — "Poly
// iteratively updates the kernels' implementations until the latency
// slack cannot be further reduced." Returns the number of swaps applied.
func (s *Scheduler) optimizeEnergy(cur, trial *planState, base []DeviceState, boundMS float64) int {
	if boundMS-cur.makespanMS <= 0 || s.tpMode {
		return 0
	}
	swaps := 0
	s.checkpoint(cur, base)
	for round := 0; round < 64; round++ { // bound defends against cycling
		ranked := s.rankedSwaps(cur, base, boundMS)
		accepted := false
		effBound := boundMS * s.slack
		if effBound < cur.makespanMS {
			effBound = cur.makespanMS // never tighter than Step 1 achieved
		}
		for _, sw := range ranked {
			// A completed trial is within effBound: the replayed kernels
			// are, and the rest end by cur.makespanMS ≤ effBound.
			if !s.trial(cur, trial, int(sw.p), sw.swapCandidate, 0, effBound) ||
				trial.energyMJ >= cur.energyMJ {
				continue
			}
			cur.copyFrom(trial)
			s.checkpoint(cur, base)
			swaps++
			accepted = true
			break
		}
		if !accepted {
			return swaps
		}
	}
	return swaps
}

// swapCandidate is a prospective replacement: an implementation on the
// board at position dev of the call's device slice.
type swapCandidate struct {
	impl *model.Impl
	dev  int32
}

// rankedSwap is one Step-2 candidate for the kernel at position p of
// orderIdx.
type rankedSwap struct {
	p      int32
	kernel string
	we     float64
	swapCandidate
}

// rankedSwaps enumerates per-kernel replacement candidates and sorts them
// by descending W_E (Eq. 5): the (ΔP × ΔT) potential of trading latency
// for power. Only genuinely energy-saving replacements qualify. The
// returned slice is scratch owned by the scheduler: it is only read
// within one optimizeEnergy round and reused by the next call.
func (s *Scheduler) rankedSwaps(st *planState, devices []DeviceState, boundMS float64) []rankedSwap {
	out := s.swapsBuf[:0]
	for p, ki := range s.orderIdx {
		a := &st.slab[ki]
		if a.Impl == nil {
			continue
		}
		kernel := s.knames[ki]
		cur, curT := a.Impl, a.ExecMS
		curE := s.perRequestEnergyMJ(cur, curT)
		// scans memoizes the last table scan per class. On a board that
		// neither holds this kernel nor would evict another, the scan's
		// result depends only on the class and the board's freq(), which
		// is never 0: f == 0 marks a class not scanned yet.
		var scans [2]struct {
			f, we float64
			impl  *model.Impl
			found bool
		}
		for di := range devices {
			d := &devices[di]
			if d.FreeAtMS > 0.2*boundMS {
				// Trading latency for energy is a light-load move; piling
				// energy-preferred work onto an already-backlogged board
				// converts slack into queueing collapse.
				continue
			}
			if d.Class != device.GPU && d.Class != device.FPGA {
				continue // no design space on other classes
			}
			var (
				im    *model.Impl
				we    float64
				found bool
			)
			if res := resident(kernel, d); res != nil {
				// Sticky: a board already serving this kernel offers
				// only its resident bitstream.
				one := [1]swapImpl{{impl: res, latencyMS: res.LatencyMS, powerW: res.PowerW, batch: res.Config.Batch}}
				im, we, found = s.bestSwap(one[:], cur, curT, curE, d.freq())
			} else if evicts(kernel, d) {
				// Never evict another kernel's live bitstream just to
				// save energy; blank boards are the swap targets.
				continue
			} else {
				sc := &scans[d.Class]
				if f := d.freq(); sc.f != f {
					sc.impl, sc.we, sc.found = s.bestSwap(s.swapTab[ki][d.Class], cur, curT, curE, f)
					sc.f = f
				}
				im, we, found = sc.impl, sc.we, sc.found
			}
			if found {
				out = append(out, rankedSwap{p: int32(p), kernel: kernel, we: we,
					swapCandidate: swapCandidate{impl: im, dev: int32(di)}})
			}
		}
	}
	slices.SortFunc(out, func(a, b rankedSwap) int {
		if a.we != b.we {
			if a.we > b.we {
				return -1
			}
			return 1
		}
		if a.kernel != b.kernel {
			return strings.Compare(a.kernel, b.kernel)
		}
		return strings.Compare(devices[a.dev].Name, devices[b.dev].Name)
	})
	s.swapsBuf = out
	return out
}

// bestSwap scans one board's candidates, at its DVFS scale f, for the
// highest-W_E energy-saving replacement of cur (executing curT ms and
// charged curE mJ); the first of equal W_E wins.
func (s *Scheduler) bestSwap(cands []swapImpl, cur *model.Impl, curT, curE, f float64) (best *model.Impl, bestWE float64, found bool) {
	for i := range cands {
		c := &cands[i]
		if c.impl == cur {
			continue
		}
		newT := c.latencyMS / f
		newE := c.powerW * newT / s.fill(c.latencyMS, c.batch)
		if curE-newE <= 0 {
			continue // no actual energy saving
		}
		we := (cur.PowerW - c.powerW) * (newT - curT)
		if !found || we > bestWE {
			best, bestWE, found = c.impl, we, true
		}
	}
	return best, bestWE, found
}

// checkpoint records cur's checkpoints: for each position p of orderIdx,
// the device states base reaches once cur's kernels at positions before p
// are committed. cur is always Step 1's placement or an accepted trial,
// and replaying either reproduces it exactly, so a trial pinned at p
// replays positions before p just as cur has them: it can start from
// checkpoint p with cur's prefix.
func (s *Scheduler) checkpoint(cur *planState, base []DeviceState) {
	nd := len(base)
	ck := append(s.ckpt[:0], base...)
	for p, ki := range s.orderIdx[:len(s.orderIdx)-1] {
		ck = append(ck, ck[p*nd:(p+1)*nd]...)
		if a := &cur.slab[ki]; a.Impl != nil {
			commit(a, &ck[(p+1)*nd+int(cur.pos[ki])])
		}
	}
	s.ckpt = ck
}

// trial replays cur with the kernel at position p of orderIdx moved to
// cand, into dst, from cur's checkpoint at p: positions before p keep
// cur's assignments, and only the rest are replayed. The result is
// bit-identical to replaying the whole order from the initial states.
//
// It stops and returns false, leaving dst unspecified, at the first
// replayed kernel whose EndMS+padMS exceeds limitMS (+Inf never stops).
// A trial's makespan is at least every replayed kernel's EndMS, so a
// stopped trial's makespan+padMS exceeds limitMS too. A completed trial
// is not known to be within the limit: only the replayed kernels were
// tested. Step 2 passes padMS 0 and a limit no tighter than cur's
// makespan, which every kept kernel ends by, so its completed trials are
// within the limit; repair passes the move's commit pad and the round's
// best score, and compares a completed trial's score itself.
//
// The pinned kernel is placed and tested before anything is copied: its
// predecessors come earlier in orderIdx, so cur holds exactly the values
// the trial would give them, and its board is read in place in the
// checkpoint.
func (s *Scheduler) trial(cur, dst *planState, p int, cand swapCandidate, padMS, limitMS float64) bool {
	s.trials++
	s.trialKernels++
	nd := len(s.ckpt) / len(s.orderIdx)
	est, end := s.startEnd(s.orderIdx[p], cand.impl, cand.dev, &s.ckpt[p*nd+int(cand.dev)], cur)
	if end+padMS > limitMS {
		return false
	}
	devs := append(s.trialDevs[:0], s.ckpt[p*nd:(p+1)*nd]...)
	s.trialDevs = devs
	dst.copyFrom(cur)
	for q := p; q < len(s.orderIdx); q++ {
		ki := s.orderIdx[q]
		im, di := cand.impl, cand.dev
		if q > p {
			im, di = cur.slab[ki].Impl, cur.pos[ki]
			if im == nil {
				continue
			}
			s.trialKernels++
			est, end = s.startEnd(ki, im, di, &devs[di], dst)
			if end+padMS > limitMS {
				return false
			}
		}
		d := &devs[di]
		a := &dst.slab[ki]
		*a = Assignment{Kernel: s.knames[ki], Impl: im, Device: d.Name,
			StartMS: est, EndMS: end,
			ExecMS:   im.LatencyMS / d.freq(),
			CommitMS: d.commitMS(im, batchCap(im))}
		dst.pos[ki] = di
		commit(a, d)
	}
	s.tally(dst)
	return true
}

// startEnd returns when kernel ki, as im on d (the board at position di),
// starts and ends after the predecessors st holds.
func (s *Scheduler) startEnd(ki int32, im *model.Impl, di int32, d *DeviceState, st *planState) (est, end float64) {
	est = s.estMS(ki, di, st)
	if avail := d.availableAt(im); avail > est {
		est = avail
	}
	return est, est + d.groupExecMS(im, s.batchN)
}

// TrialStats reports the Step 1.5/2 trials this scheduler has run and the
// kernels they replayed. Both are deterministic work counters: they
// depend only on the planning inputs, not on the host.
func (s *Scheduler) TrialStats() (trials, kernels int) { return s.trials, s.trialKernels }
