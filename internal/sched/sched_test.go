package sched

import (
	"math"
	"sort"
	"testing"

	"poly/internal/analysis"
	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/model"
	"poly/internal/opencl"
	"poly/internal/opt"
)

// asrSrc mirrors the ASR DAG of Fig. 6: K1 ⇒ K4 and K2 ⇒ K3 ⇒ K4, with
// K1 a large dense (GPU-friendly) kernel and K2/K3 pipeline-heavy
// (FPGA-friendly) ones.
const asrSrc = `
program asr
latency_bound 200

kernel k1
  repeat 4000
  const w f32[1024x1024]
  in x f32[1024]
  map    m(x w, func=mac ops=2048 elems=1024)
  reduce r(m, func=add assoc elems=1024)
  out r

kernel k2
  repeat 2000
  const w f32[512x512]
  in x f32[512]
  map      m(x w, func=mac ops=1024 elems=512)
  pipeline p(m, funcs=[mul:1 tanh:4])
  out p

kernel k3
  repeat 2000
  in x f32[512]
  pipeline p(x, funcs=[mul:1 add:1 sigmoid:4])
  reduce   r(p, func=add assoc elems=128)
  out r

kernel k4
  repeat 2500
  const w f32[512x256]
  in x f32[512]
  map m(x w, func=mac ops=1024 elems=256)
  out m

edge k1 -> k4 bytes=4096
edge k2 -> k3 bytes=2048
edge k3 -> k4 bytes=512
`

func buildSched(t testing.TB) (*Scheduler, *opencl.Program, *dse.KernelSpaces) {
	t.Helper()
	prog := opencl.MustParse(asrSrc)
	pa, err := analysis.AnalyzeProgram(prog, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := dse.ExploreProgram(pa, device.AMDW9100, device.Xilinx7V3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	return s, prog, ks
}

func settingIDevices() []DeviceState {
	devs := []DeviceState{{Name: "gpu0", Class: device.GPU, FreqScale: 1}}
	for _, n := range []string{"fpga0", "fpga1", "fpga2", "fpga3", "fpga4"} {
		devs = append(devs, DeviceState{Name: n, Class: device.FPGA,
			ReconfigMS: device.Xilinx7V3.ReconfigMS, FreqScale: 1})
	}
	return devs
}

func TestLatencyPriorityMonotoneAlongEdges(t *testing.T) {
	s, prog, _ := buildSched(t)
	for _, e := range prog.Edges() {
		if s.LatencyPriority(e.From) <= s.LatencyPriority(e.To) {
			t.Fatalf("W_L(%s)=%v not greater than W_L(%s)=%v",
				e.From, s.LatencyPriority(e.From), e.To, s.LatencyPriority(e.To))
		}
	}
	// The sink's priority equals its own minimum latency plus nothing.
	if s.LatencyPriority("k4") <= 0 {
		t.Fatal("sink priority must be positive")
	}
}

func validatePlan(t *testing.T, p *Plan, prog *opencl.Program) {
	t.Helper()
	if len(p.Assignments) != len(prog.Kernels()) {
		t.Fatalf("plan has %d assignments, want %d", len(p.Assignments), len(prog.Kernels()))
	}
	// Dependencies respected.
	for _, e := range prog.Edges() {
		from, to := p.Assignment(e.From), p.Assignment(e.To)
		if to.StartMS < from.EndMS {
			t.Fatalf("edge %s->%s violated: %v < %v", e.From, e.To, to.StartMS, from.EndMS)
		}
	}
	// No overlap per device.
	byDev := map[string][]*Assignment{}
	for i := range p.Assignments {
		a := &p.Assignments[i]
		byDev[a.Device] = append(byDev[a.Device], a)
	}
	for dev, as := range byDev {
		sort.Slice(as, func(i, j int) bool { return as[i].StartMS < as[j].StartMS })
		for i := 1; i < len(as); i++ {
			if as[i].StartMS < as[i-1].EndMS-1e-9 {
				t.Fatalf("device %s overlaps: %s and %s", dev, as[i-1].Kernel, as[i].Kernel)
			}
		}
	}
	// Makespan = max end.
	var max float64
	for _, a := range p.Assignments {
		if a.EndMS > max {
			max = a.EndMS
		}
	}
	if p.MakespanMS != max {
		t.Fatalf("makespan %v != max end %v", p.MakespanMS, max)
	}
}

func TestScheduleProducesValidPlan(t *testing.T) {
	s, prog, _ := buildSched(t)
	p, err := s.Schedule(settingIDevices(), 0)
	if err != nil {
		t.Fatal(err)
	}
	validatePlan(t, p, prog)
	if p.BoundMS != 200 {
		t.Fatalf("bound = %v, want program default 200", p.BoundMS)
	}
	if len(p.Order()) != 4 {
		t.Fatal("Order must list all kernels")
	}
}

func TestScheduleUsesBothFamilies(t *testing.T) {
	s, _, _ := buildSched(t)

	// With a loose bound, Step 2 must move at least one kernel to the
	// energy-friendly FPGAs (Fig. 6's energy-optimization narrative).
	loose, err := s.Schedule(settingIDevices(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	fpga := 0
	for _, a := range loose.Assignments {
		if a.Impl.Platform == device.FPGA {
			fpga++
		}
	}
	if fpga == 0 {
		t.Fatal("energy step never used the FPGAs")
	}

	// With the GPU deeply backlogged, Step 1 itself must route around it.
	busy := settingIDevices()
	busy[0].FreeAtMS = 5000 // gpu0
	rerouted, err := s.Schedule(busy, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fpga = 0
	for _, a := range rerouted.Assignments {
		if a.Impl.Platform == device.FPGA {
			fpga++
		}
	}
	if fpga == 0 {
		t.Fatal("latency step ignored GPU backlog")
	}
}

func TestEnergyStepNeverViolatesBoundAndSavesEnergy(t *testing.T) {
	s, prog, _ := buildSched(t)
	devs := settingIDevices()

	// A latency-only plan (tiny bound forces step 2 to be a no-op).
	tight, err := s.Schedule(devs, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if tight.EnergySwaps != 0 {
		t.Fatal("no slack must mean no swaps")
	}
	// A loose bound lets step 2 trade slack for energy.
	loose, err := s.Schedule(devs, 10*tight.MakespanMS)
	if err != nil {
		t.Fatal(err)
	}
	validatePlan(t, loose, prog)
	if loose.MakespanMS > loose.BoundMS {
		t.Fatalf("step 2 violated the bound: %v > %v", loose.MakespanMS, loose.BoundMS)
	}
	if loose.EnergyMJ > tight.EnergyMJ {
		t.Fatalf("step 2 increased energy: %v > %v", loose.EnergyMJ, tight.EnergyMJ)
	}
	if loose.EnergySwaps == 0 {
		t.Fatal("generous slack produced no energy swaps")
	}
	if loose.SlackMS() < 0 {
		t.Fatal("slack must stay non-negative")
	}
}

func TestScheduleAccountsDeviceBacklog(t *testing.T) {
	s, _, _ := buildSched(t)
	idle, err := s.Schedule(settingIDevices(), 0)
	if err != nil {
		t.Fatal(err)
	}
	busy := settingIDevices()
	for i := range busy {
		busy[i].FreeAtMS = 500
	}
	delayed, err := s.Schedule(busy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.MakespanMS <= idle.MakespanMS {
		t.Fatalf("backlog ignored: %v <= %v", delayed.MakespanMS, idle.MakespanMS)
	}
}

func TestScheduleDoesNotMutateCallerDevices(t *testing.T) {
	s, _, _ := buildSched(t)
	devs := settingIDevices()
	if _, err := s.Schedule(devs, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if d.FreeAtMS != 0 || d.LoadedImpl != "" {
			t.Fatalf("caller state mutated: %+v", d)
		}
	}
}

func TestFPGAReconfigPenaltyInPlanning(t *testing.T) {
	s, _, _ := buildSched(t)
	// One FPGA only, blank: plan must include reconfiguration time
	// relative to a pre-loaded device.
	blank := []DeviceState{{Name: "fpga0", Class: device.FPGA, ReconfigMS: 80}}
	p1, err := s.Schedule(blank, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	k := p1.Order()[0].Kernel
	loaded := []DeviceState{{Name: "fpga0", Class: device.FPGA, ReconfigMS: 80,
		LoadedImpl: ImplID(p1.Assignment(k).Impl)}}
	p2, err := s.Schedule(loaded, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if a1, a2 := p1.Assignment(k), p2.Assignment(k); a2.EndMS-a2.StartMS >= a1.EndMS-a1.StartMS {
		t.Fatal("pre-loaded bitstream did not avoid the reconfiguration penalty")
	}
}

func TestScheduleErrors(t *testing.T) {
	s, prog, ks := buildSched(t)
	if _, err := s.Schedule(nil, 0); err == nil {
		t.Fatal("no devices accepted")
	}
	// A program whose kernels lack spaces is rejected at construction.
	if _, err := New(prog, &dse.KernelSpaces{GPU: map[string]*dse.Space{}, FPGA: map[string]*dse.Space{}}); err == nil {
		t.Fatal("missing design spaces accepted")
	}
	sp, err := NewStatic(prog, ks, device.FPGA, StaticAuto)
	if err != nil {
		t.Fatal(err)
	}
	// A NaN or +Inf bound is an error on both planners, whether the call
	// would hit the cache or not; any bound <= 0, -Inf included, means
	// the program's own.
	planners := []struct {
		name     string
		schedule func([]DeviceState, float64) (*Plan, error)
	}{{"dynamic", s.Schedule}, {"static", sp.Schedule}}
	for _, pl := range planners {
		for _, bound := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
			p, err := pl.schedule(settingIDevices(), bound)
			switch {
			case bound > 0 || math.IsNaN(bound):
				if err == nil {
					t.Errorf("%s planner accepted bound %v (plan bound %v)", pl.name, bound, p.BoundMS)
				}
			case err != nil:
				t.Errorf("%s planner rejected bound %v: %v", pl.name, bound, err)
			case p.BoundMS != prog.LatencyBoundMS:
				t.Errorf("%s planner planned bound %v against %v, want the program's %v", pl.name, bound, p.BoundMS, prog.LatencyBoundMS)
			}
		}
	}
}

func TestStaticPlannerFixedMapping(t *testing.T) {
	_, prog, ks := buildSched(t)
	for _, class := range []device.Class{device.GPU, device.FPGA} {
		sp, err := NewStatic(prog, ks, class, StaticAuto)
		if err != nil {
			t.Fatal(err)
		}
		devs := settingIDevices()
		p, err := sp.Schedule(devs, 0)
		if err != nil {
			t.Fatal(err)
		}
		validatePlan(t, p, prog)
		for _, a := range p.Assignments {
			if a.Impl.Platform != class {
				t.Fatalf("static %s plan placed %s on %s", class, a.Kernel, a.Impl.Platform)
			}
			if a.Impl != sp.Impl(a.Kernel) {
				t.Fatal("static plan deviated from its fixed mapping")
			}
		}
		// Fixed across repeated calls.
		p2, err := sp.Schedule(devs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range p.Assignments {
			if p.Assignments[k].Impl != p2.Assignments[k].Impl {
				t.Fatal("static mapping changed between requests")
			}
		}
	}
}

// TestStaticResidencyByIdentity: the static planner resolves resident
// bitstreams to its fixed implementations on every call, cache on or off,
// so a board already holding a kernel's fixed bitstream runs it without a
// reconfiguration, in Schedule and in PlaceKernel alike.
func TestStaticResidencyByIdentity(t *testing.T) {
	_, prog, ks := buildSched(t)
	for _, capacity := range []int{defaultPlanCacheCapacity, 0} {
		sp, err := NewStatic(prog, ks, device.FPGA, StaticAuto)
		if err != nil {
			t.Fatal(err)
		}
		sp.SetPlanCacheCapacity(capacity)
		devs := settingIDevices()
		for ki, boards := range sp.partition(devs) {
			for di, mine := range boards {
				if mine {
					devs[di].LoadedImpl = ImplID(sp.impls[ki])
				}
			}
		}
		p, err := sp.Schedule(devs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Assignments {
			if a.EndMS-a.StartMS-a.ExecMS > 1e-9 {
				t.Fatalf("cache %d: %s paid a reconfiguration on its resident bitstream: %+v", capacity, a.Kernel, a)
			}
		}
		a, err := sp.PlaceKernel("k2", devs)
		if err != nil {
			t.Fatal(err)
		}
		if a.EndMS-a.StartMS-a.ExecMS > 1e-9 || a.Device != p.Assignment("k2").Device {
			t.Fatalf("cache %d: PlaceKernel ignored k2's resident board: %+v", capacity, a)
		}
	}
}

func TestStaticModesDiffer(t *testing.T) {
	_, prog, ks := buildSched(t)
	fast, err := NewStatic(prog, ks, device.GPU, StaticMinLatency)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := NewStatic(prog, ks, device.GPU, StaticMaxEfficiency)
	if err != nil {
		t.Fatal(err)
	}
	devs := settingIDevices()
	pf, err := fast.Schedule(devs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := eff.Schedule(devs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf.MakespanMS > pe.MakespanMS {
		t.Fatalf("min-latency mapping slower than max-efficiency: %v > %v", pf.MakespanMS, pe.MakespanMS)
	}
	if _, err := NewStatic(prog, ks, device.GPU, StaticMode(42)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestStaticPlannerNeedsItsClass(t *testing.T) {
	_, prog, ks := buildSched(t)
	sp, err := NewStatic(prog, ks, device.GPU, StaticAuto)
	if err != nil {
		t.Fatal(err)
	}
	fpgasOnly := []DeviceState{{Name: "fpga0", Class: device.FPGA, ReconfigMS: 80}}
	if _, err := sp.Schedule(fpgasOnly, 0); err == nil {
		t.Fatal("GPU baseline scheduled without GPUs")
	}
}

func TestImplIDStable(t *testing.T) {
	_, _, ks := buildSched(t)
	im := ks.GPU["k1"].MinLatency()
	if ImplID(im) != ImplID(im) || ImplID(im) == "" {
		t.Fatal("ImplID must be stable and non-empty")
	}
}

func TestSchedulerKnobs(t *testing.T) {
	s, prog, _ := buildSched(t)
	if s.Program() != prog {
		t.Fatal("Program accessor wrong")
	}
	if s.SlackFactor() != 0.6 {
		t.Fatalf("default slack = %v", s.SlackFactor())
	}
	s.SetSlackFactor(0.05)
	if s.SlackFactor() != 0.1 {
		t.Fatal("slack must clamp to 0.1")
	}
	s.SetSlackFactor(5)
	if s.SlackFactor() != 1 {
		t.Fatal("slack must clamp to 1")
	}
	if s.ThroughputMode() {
		t.Fatal("throughput mode must default off")
	}
	s.SetThroughputMode(true)
	if !s.ThroughputMode() {
		t.Fatal("throughput mode not set")
	}
	s.SetThroughputMode(false)
	s.SetLoadHint(-5) // clamps to 0
	s.SetLoadHint(40)
}

func TestThroughputModeMutesEnergyStep(t *testing.T) {
	s, _, _ := buildSched(t)
	devs := settingIDevices()
	s.SetThroughputMode(true)
	p, err := s.Schedule(devs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p.EnergySwaps != 0 {
		t.Fatal("throughput mode must not spend slack on energy")
	}
	s.SetThroughputMode(false)
}

func TestLoadHintChangesBatchFill(t *testing.T) {
	s, _, _ := buildSched(t)
	var batched *model.Impl
	for _, im := range s.candidatesIdx(s.kidx["k1"], device.GPU) {
		if im.Config.Batch > 1 {
			batched = im
			break
		}
	}
	if batched == nil {
		t.Skip("no batched frontier point")
	}
	s.SetLoadHint(0)
	low := s.expectedFill(batched)
	s.SetLoadHint(1000)
	high := s.expectedFill(batched)
	if low != 1 {
		t.Fatalf("zero-load fill = %v, want 1", low)
	}
	if high != float64(batched.Config.Batch) {
		t.Fatalf("saturated fill = %v, want batch %d", high, batched.Config.Batch)
	}
}

func TestImplByIDAndPreferred(t *testing.T) {
	s, _, ks := buildSched(t)
	im := ks.FPGA["k1"].MinLatency()
	if s.ImplByID(ImplID(im)) != im {
		t.Fatal("ImplByID lookup failed")
	}
	if s.ImplByID("nope") != nil {
		t.Fatal("unknown ID must return nil")
	}
	pref := s.PreferredFPGAImpl("k1")
	if pref == nil {
		t.Fatal("no preferred impl")
	}
	fast := ks.FPGA["k1"].MinLatency()
	if pref.LatencyMS > 1.4*fast.LatencyMS {
		t.Fatalf("preferred impl too slow: %.1f vs fastest %.1f", pref.LatencyMS, fast.LatencyMS)
	}
	if pref.EfficiencyRPSPerW() < fast.EfficiencyRPSPerW() {
		t.Fatal("preferred impl must not be less efficient than the fastest")
	}
	if s.PreferredFPGAImpl("unknown-kernel") != nil {
		t.Fatal("unknown kernel must return nil")
	}
}

func TestBatchCap(t *testing.T) {
	if batchCap(&model.Impl{}) != 1 {
		t.Fatal("zero batch caps at 1")
	}
	if batchCap(&model.Impl{Config: opt.Config{Batch: 8}}) != 8 {
		t.Fatal("batch cap wrong")
	}
}

// TestPlannerHintsSanitized checks the mode hints are made sane before
// they reach planning or the plan key: NaN slack leaves the factor
// unchanged (a NaN effective bound would accept every energy swap and
// blow through the latency bound), NaN and negative load hints read as 0,
// and out-of-range values clamp. Each plan must match one built from the
// sane values it stands for.
func TestPlannerHintsSanitized(t *testing.T) {
	cases := []struct {
		name                string
		slack, load         float64
		wantSlack, wantLoad float64
	}{
		{"NaN slack keeps the factor", math.NaN(), 40, defaultSlackFactor, 40},
		{"slack above 1 clamps", 3, 40, 1, 40},
		{"slack below 0.1 clamps", 0.01, 40, 0.1, 40},
		{"NaN load reads as 0", defaultSlackFactor, math.NaN(), defaultSlackFactor, 0},
		{"negative load reads as 0", defaultSlackFactor, -5, defaultSlackFactor, 0},
		{"+Inf load fills every batch", defaultSlackFactor, math.Inf(1), defaultSlackFactor, 1e9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := buildSched(t)
			s.SetSlackFactor(tc.slack)
			s.SetLoadHint(tc.load)
			if got := s.SlackFactor(); got != tc.wantSlack {
				t.Fatalf("slack factor %v, want %v", got, tc.wantSlack)
			}
			p, err := s.Schedule(steadyDevices(s), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !(p.MakespanMS <= p.BoundMS) || math.IsNaN(p.EnergyMJ) {
				t.Fatalf("makespan %v ms against bound %v ms, energy %v mJ", p.MakespanMS, p.BoundMS, p.EnergyMJ)
			}
			ref, _, _ := buildSched(t)
			ref.SetSlackFactor(tc.wantSlack)
			ref.SetLoadHint(tc.wantLoad)
			want, err := ref.Schedule(steadyDevices(ref), 0)
			if err != nil {
				t.Fatal(err)
			}
			plansBitIdentical(t, tc.name, p, want)
		})
	}
}
