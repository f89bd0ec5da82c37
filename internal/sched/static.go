package sched

import (
	"encoding/binary"
	"fmt"
	"math"

	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/model"
	"poly/internal/opencl"
)

// StaticMode selects which fixed implementation the baseline deploys.
type StaticMode int

// The two baseline deployment policies of Section VI-A: the Homo-GPU and
// Homo-FPGA systems fix one implementation per kernel — maximum energy
// efficiency if it meets the latency constraint, minimum latency
// otherwise — and never change it with load.
const (
	// StaticAuto picks max-efficiency if the bound holds, else min-latency.
	StaticAuto StaticMode = iota
	// StaticMinLatency always uses the fastest implementation.
	StaticMinLatency
	// StaticMaxEfficiency always uses the most energy-efficient one.
	StaticMaxEfficiency
)

// StaticPlanner is the Sirius-style [4] hard-mapping baseline: every
// kernel is pinned to one accelerator family with one implementation,
// chosen offline and fixed across load intensities.
type StaticPlanner struct {
	prog  *opencl.Program
	class device.Class
	// knames/kidx/preds are the program interned to dense kernel indices
	// (see internKernels); orderIdx is its topological order in those
	// indices and impls the fixed implementation per kernel index.
	knames   []string
	kidx     map[string]int32
	preds    [][]predEdge
	orderIdx []int32
	impls    []*model.Impl

	// healthEpoch mirrors the dynamic scheduler's board-health
	// generation: folded into the cache key so health transitions
	// invalidate memoized plans.
	healthEpoch uint64

	// cache memoizes plans by exact device-state signature — the static
	// planner has no mode knobs, so the key is just (epoch, bound,
	// devices).
	cache  *PlanCache
	keyBuf []byte
	// resid interns the fixed implementations and resolves the boards'
	// resident bitstreams on every call, for the plan key and for the
	// residency tests of availableAt and execMS.
	resid residencies
	// scratchWork, slab and part are the reusable per-call device working
	// copy, placement slab and partition.
	scratchWork []DeviceState
	slab        []Assignment
	part        [][]bool
}

// NewStatic builds the baseline planner for one accelerator family.
func NewStatic(prog *opencl.Program, spaces *dse.KernelSpaces, class device.Class, mode StaticMode) (*StaticPlanner, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	topo, err := prog.TopoSort()
	if err != nil {
		return nil, err
	}
	sp := &StaticPlanner{prog: prog, class: class,
		cache: newPlanCache(defaultPlanCacheCapacity), resid: newResidencies()}
	sp.knames, sp.kidx, sp.preds = internKernels(prog, device.DefaultPCIe)
	for _, k := range topo {
		sp.orderIdx = append(sp.orderIdx, sp.kidx[k])
	}
	sp.slab = make([]Assignment, len(sp.knames))
	sp.part = make([][]bool, len(sp.knames))

	pick := func(mode StaticMode) ([]*model.Impl, error) {
		out := make([]*model.Impl, len(sp.knames))
		for _, ki := range sp.orderIdx {
			k := sp.knames[ki]
			space := spaces.Space(k, class)
			if space == nil {
				return nil, fmt.Errorf("sched: kernel %q has no %s design space", k, class)
			}
			var im *model.Impl
			if mode == StaticMinLatency {
				im = space.MinLatency()
			} else {
				im = space.MaxEfficiency()
			}
			if im == nil {
				return nil, fmt.Errorf("sched: kernel %q has an empty %s frontier", k, class)
			}
			out[ki] = im
		}
		return out, nil
	}

	switch mode {
	case StaticMinLatency, StaticMaxEfficiency:
		sp.impls, err = pick(mode)
		if err != nil {
			return nil, err
		}
	case StaticAuto:
		// Prefer the efficient mapping; fall back to min-latency when the
		// unloaded critical path eats more than half the bound — a fixed
		// deployment needs queueing headroom it can never adapt to regain.
		eff, err := pick(StaticMaxEfficiency)
		if err != nil {
			return nil, err
		}
		sp.impls = eff
		if sp.criticalPathMS() > 0.5*prog.LatencyBoundMS {
			fast, err := pick(StaticMinLatency)
			if err != nil {
				return nil, err
			}
			sp.impls = fast
		}
	default:
		return nil, fmt.Errorf("sched: unknown static mode %d", int(mode))
	}
	for _, im := range sp.impls {
		sp.resid.intern(ImplID(im), im)
	}
	return sp, nil
}

// Impl returns the fixed implementation for a kernel (nil if unknown).
func (sp *StaticPlanner) Impl(kernel string) *model.Impl {
	if ki, ok := sp.kidx[kernel]; ok {
		return sp.impls[ki]
	}
	return nil
}

// criticalPathMS is the unloaded DAG latency under the fixed mapping,
// ignoring device contention (single in-flight request).
func (sp *StaticPlanner) criticalPathMS() float64 {
	finish := make([]float64, len(sp.knames))
	var max float64
	for _, ki := range sp.orderIdx {
		var ready float64
		for _, e := range sp.preds[ki] {
			if finish[e.from] > ready {
				ready = finish[e.from]
			}
		}
		finish[ki] = ready + sp.impls[ki].LatencyMS
		if finish[ki] > max {
			max = finish[ki]
		}
	}
	return max
}

// partition statically assigns each kernel a dedicated subset of the
// class's boards, proportional to the kernel's share of total execution
// time (at least one board each). This is the baseline's "hard mapping":
// a board only ever hosts one kernel, so FPGAs never reconfigure after
// the first load — exactly how a fixed Sirius-style deployment pins
// bitstreams. The result is indexed [kernel index][device position]; its
// storage is reused across calls.
func (sp *StaticPlanner) partition(devices []DeviceState) [][]bool {
	var boards []int
	for di := range devices {
		if devices[di].Class == sp.class {
			boards = append(boards, di)
		}
	}
	out := sp.part
	for ki := range out {
		if cap(out[ki]) < len(devices) {
			out[ki] = make([]bool, len(devices))
		}
		out[ki] = out[ki][:len(devices)]
		clear(out[ki])
	}
	if len(boards) == 0 {
		return out
	}
	var total float64
	for _, ki := range sp.orderIdx {
		total += sp.impls[ki].LatencyMS
	}
	// First pass: proportional share, at least one board per kernel when
	// enough boards exist; boards assigned contiguously in device order.
	n, nk := len(boards), len(sp.orderIdx)
	next := 0
	for i, ki := range sp.orderIdx {
		share := 1
		if total > 0 && nk <= n {
			share = int(float64(n) * sp.impls[ki].LatencyMS / total)
			if share < 1 {
				share = 1
			}
		}
		remainingKernels := nk - i - 1
		if next+share > n-remainingKernels {
			share = n - remainingKernels - next
			if share < 1 {
				share = 1
			}
		}
		assigned := false
		for j := 0; j < share && next < n; j++ {
			out[ki][boards[next]] = true
			next++
			assigned = true
		}
		if !assigned {
			// More kernels than boards: share boards round-robin.
			out[ki][boards[i%n]] = true
		}
	}
	// Leftover boards go to the heaviest kernel.
	if next < n {
		heaviest := sp.orderIdx[0]
		for _, ki := range sp.orderIdx {
			if sp.impls[ki].LatencyMS > sp.impls[heaviest].LatencyMS {
				heaviest = ki
			}
		}
		for ; next < n; next++ {
			out[heaviest][boards[next]] = true
		}
	}
	return out
}

// SetPlanCacheCapacity resizes the plan cache (n <= 0 disables it).
func (sp *StaticPlanner) SetPlanCacheCapacity(n int) { sp.cache = newPlanCache(n) }

// SetHealthEpoch folds the runtime's board-health generation into the
// plan-cache key (see Scheduler.SetHealthEpoch).
func (sp *StaticPlanner) SetHealthEpoch(e uint64) { sp.healthEpoch = e }

// PlaceKernel re-places one kernel after a task failure: the fixed
// implementation goes to the least-loaded surviving device of the
// baseline's accelerator family. The hard partition is ignored — a fixed
// deployment that just lost a board has no better option than sharing
// the survivors.
func (sp *StaticPlanner) PlaceKernel(kernel string, devices []DeviceState) (*Assignment, error) {
	im := sp.Impl(kernel)
	if im == nil {
		return nil, fmt.Errorf("sched: unknown kernel %q", kernel)
	}
	sp.resid.resolve(devices)
	sp.scratchWork = sp.resid.copyResolved(sp.scratchWork, devices)
	var best *Assignment
	for di := range sp.scratchWork {
		d := &sp.scratchWork[di]
		if d.Class != sp.class {
			continue
		}
		est := d.availableAt(im)
		end := est + d.execMS(im)
		if best == nil || end < best.EndMS {
			best = &Assignment{Kernel: kernel, Impl: im, Device: d.Name,
				StartMS: est, EndMS: end, ExecMS: im.LatencyMS / d.freq(),
				CommitMS: d.commitMS(im, float64(max(1, im.Config.Batch)))}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("sched: no %s device available for kernel %q", sp.class, kernel)
	}
	return best, nil
}

// PlanCacheStats reports the plan cache's hit/miss counters.
func (sp *StaticPlanner) PlanCacheStats() (hits, misses int) { return sp.cache.Stats() }

// Schedule produces the baseline's plan: each kernel goes to the
// least-loaded device of its dedicated partition with its fixed impl.
// Like the dynamic scheduler, plans are memoized by exact device-state
// signature; the static planner is a pure function of (devices, bound).
func (sp *StaticPlanner) Schedule(devices []DeviceState, boundMS float64) (*Plan, error) {
	if boundMS <= 0 {
		boundMS = sp.prog.LatencyBoundMS
	}
	sp.resid.resolve(devices)
	if sp.cache == nil {
		return sp.scheduleCold(devices, boundMS)
	}
	key := binary.LittleEndian.AppendUint64(sp.keyBuf[:0], sp.healthEpoch)
	key = binary.LittleEndian.AppendUint64(key, math.Float64bits(boundMS))
	key = appendPlanKeyDevices(key, devices, sp.resid.res)
	sp.keyBuf = key
	return sp.cache.memo(key, func() (*Plan, error) {
		return sp.scheduleCold(devices, boundMS)
	})
}

// scheduleCold places the request on devices resolved by resid.resolve.
func (sp *StaticPlanner) scheduleCold(devices []DeviceState, boundMS float64) (*Plan, error) {
	part := sp.partition(devices)
	work := sp.resid.copyResolved(sp.scratchWork, devices)
	sp.scratchWork = work
	slab := sp.slab
	clear(slab)
	for _, ki := range sp.orderIdx {
		k := sp.knames[ki]
		im := sp.impls[ki]
		var best Assignment
		bestDi := -1
		for di := range work {
			d := &work[di]
			if d.Class != sp.class || !part[ki][di] {
				continue
			}
			est := d.availableAt(im)
			for _, e := range sp.preds[ki] {
				pa := &slab[e.from]
				if pa.Impl == nil {
					continue
				}
				ready := pa.EndMS
				if pa.Device != d.Name {
					ready += e.transferMS
				}
				if ready > est {
					est = ready
				}
			}
			end := est + d.execMS(im)
			if best.Impl == nil || end < best.EndMS {
				best = Assignment{Kernel: k, Impl: im, Device: d.Name,
					StartMS: est, EndMS: end, ExecMS: im.LatencyMS / d.freq(),
					CommitMS: d.commitMS(im, float64(max(1, im.Config.Batch)))}
				bestDi = di
			}
		}
		if best.Impl == nil {
			return nil, fmt.Errorf("sched: no %s device available for kernel %q", sp.class, k)
		}
		slab[ki] = best
		d := &work[bestDi]
		if free := best.StartMS + best.CommitMS; free > d.FreeAtMS {
			d.FreeAtMS = free
		}
		if best.EndMS > d.lastEndMS {
			d.lastEndMS = best.EndMS
		}
		d.loaded = best.Impl
	}
	var makespanMS, energyMJ float64
	for _, ki := range sp.orderIdx {
		a := &slab[ki]
		makespanMS = math.Max(makespanMS, a.EndMS)
		b := a.Impl.Config.Batch
		if b < 1 {
			b = 1
		}
		energyMJ += a.Impl.PowerW * a.ExecMS / float64(b)
	}
	return newPlan(slab, boundMS, makespanMS, energyMJ, 0), nil
}
