package device

import (
	"math"
	"testing"

	"poly/internal/sim"
)

// funcOwner adapts per-task start and completion callbacks to
// TaskOwner; nil fields are skipped and failures ignored.
type funcOwner struct{ start, done func(sim.Time) }

func (o *funcOwner) TaskStarted(_ *Task, at sim.Time) { call(o.start, at) }
func (o *funcOwner) TaskDone(_ *Task, at sim.Time)    { call(o.done, at) }
func (o *funcOwner) TaskFailed(*Task, sim.Time)       {}

func call(fn func(sim.Time), at sim.Time) {
	if fn != nil {
		fn(at)
	}
}

// onDone returns an owner reporting completion to done, or nil (a silent
// task) when done is nil.
func onDone(done func(sim.Time)) TaskOwner {
	if done == nil {
		return nil
	}
	return &funcOwner{done: done}
}

func gpuTask(impl string, lat float64, batch int, done func(sim.Time)) *Task {
	return &Task{Kernel: "k", ImplID: impl, LatencyMS: lat, IntervalMS: lat,
		Batch: batch, PowerW: 200, Owner: onDone(done)}
}

func TestGPUExecutesAndAccountsEnergy(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	var doneAt sim.Time
	g.Submit(gpuTask("a", 100, 1, func(at sim.Time) { doneAt = at }))
	s.Run()
	want := 100 * g.Perturb("a")
	if math.Abs(float64(doneAt)-want) > 1e-9 {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	// Energy: ~200 W for ~100 ms ≈ 20000 mJ.
	e := g.EnergyMJ()
	if e < 15000 || e > 25000 {
		t.Fatalf("energy = %.0f mJ, want ≈20000", e)
	}
	if g.PowerW() != g.idlePower() {
		t.Fatalf("idle power = %v after completion", g.PowerW())
	}
}

func TestGPUBatchesSameImplOnly(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	var order []string
	mk := func(impl string, batch int) *Task {
		return gpuTask(impl, 10, batch, func(sim.Time) { order = append(order, impl) })
	}
	// Three 'a' tasks (batch cap 4) and one 'b': a,a,a run in ONE launch,
	// then b separately.
	g.Submit(mk("a", 4))
	g.Submit(mk("a", 4))
	g.Submit(mk("a", 4))
	g.Submit(mk("b", 4))
	s.Run()
	if len(order) != 4 {
		t.Fatalf("completions = %v", order)
	}
	// a-batch completes together, so total time ≈ one a-launch + one
	// b-launch ≈ 20 ms (with noise), not 40.
	if now := float64(s.Now()); now > 25 {
		t.Fatalf("batching did not merge same-impl tasks: finished at %v", now)
	}
}

func TestGPUQueueingDelaysDifferentImpls(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	var last sim.Time
	g.Submit(gpuTask("a", 10, 1, nil))
	g.Submit(gpuTask("b", 10, 1, func(at sim.Time) { last = at }))
	if g.QueueLen() != 2 {
		t.Fatalf("queue len = %d", g.QueueLen())
	}
	s.Run()
	if float64(last) < 19 {
		t.Fatalf("second task finished at %v, want ≥ ~20 (serialized)", last)
	}
}

func TestGPUDVFSSlowsAndSaves(t *testing.T) {
	fast := sim.New()
	gf := NewGPU(fast, "gpu0", AMDW9100)
	gf.Submit(gpuTask("a", 100, 1, nil))
	fast.Run()

	slow := sim.New()
	gs := NewGPU(slow, "gpu0", AMDW9100)
	gs.SetDVFS(2)
	if gs.DVFSLevel() != 2 {
		t.Fatal("DVFS level not applied")
	}
	gs.Submit(gpuTask("a", 100, 1, nil))
	slow.Run()

	if slow.Now() <= fast.Now() {
		t.Fatalf("low DVFS not slower: %v vs %v", slow.Now(), fast.Now())
	}
	if gs.EnergyMJ() >= gf.EnergyMJ() {
		t.Fatalf("low DVFS not cheaper: %.0f vs %.0f mJ", gs.EnergyMJ(), gf.EnergyMJ())
	}
	// Idle power also drops with the ladder.
	idleHigh := NewGPU(sim.New(), "x", AMDW9100)
	idleLow := NewGPU(sim.New(), "x", AMDW9100)
	idleLow.SetDVFS(2)
	if idleLow.PowerW() >= idleHigh.PowerW() {
		t.Fatal("idle power must drop at low DVFS")
	}
}

func TestGPUSetDVFSClamps(t *testing.T) {
	g := NewGPU(sim.New(), "gpu0", AMDW9100)
	g.SetDVFS(-3)
	if g.DVFSLevel() != 0 {
		t.Fatal("negative level must clamp to 0")
	}
	g.SetDVFS(99)
	if g.DVFSLevel() != len(AMDW9100.DVFS)-1 {
		t.Fatal("oversized level must clamp")
	}
}

func TestGPUNextFreeAtGrowsWithQueue(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	empty := g.NextFreeAt()
	g.Submit(gpuTask("a", 50, 1, nil))
	g.Submit(gpuTask("b", 50, 1, nil))
	if g.NextFreeAt() <= empty {
		t.Fatal("NextFreeAt must grow with queued work")
	}
}

func fpgaTask(impl string, lat, ii float64, done func(sim.Time)) *Task {
	return &Task{Kernel: "k", ImplID: impl, LatencyMS: lat, IntervalMS: ii,
		Batch: 1, PowerW: 30, Owner: onDone(done)}
}

func TestFPGAPaysReconfigurationOnImplChange(t *testing.T) {
	s := sim.New()
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	var first sim.Time
	f.Submit(fpgaTask("a", 10, 10, func(at sim.Time) { first = at }))
	s.Run()
	// Blank shell → must reconfigure (80 ms) before the first task.
	if float64(first) < Xilinx7V3.ReconfigMS {
		t.Fatalf("first completion at %v, want ≥ reconfig %v", first, Xilinx7V3.ReconfigMS)
	}
	if f.Loaded() != "a" {
		t.Fatalf("loaded = %q", f.Loaded())
	}
	// Same impl again: no reconfig.
	start := s.Now()
	var second sim.Time
	f.Submit(fpgaTask("a", 10, 10, func(at sim.Time) { second = at }))
	s.Run()
	if d := float64(second - start); d > 15 {
		t.Fatalf("same-impl task took %v ms, reconfig charged twice?", d)
	}
	// Different impl: reconfig again.
	start = s.Now()
	var third sim.Time
	f.Submit(fpgaTask("b", 10, 10, func(at sim.Time) { third = at }))
	s.Run()
	if d := float64(third - start); d < Xilinx7V3.ReconfigMS {
		t.Fatalf("impl change took %v ms, want ≥ reconfig", d)
	}
}

func TestFPGAPipelinesRequests(t *testing.T) {
	s := sim.New()
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	n := 10
	var lastDone sim.Time
	for i := 0; i < n; i++ {
		f.Submit(fpgaTask("a", 100, 10, func(at sim.Time) { lastDone = at }))
	}
	s.Run()
	// Pipelined: ≈ reconfig + latency + (n-1)×II ≈ 80+100+90 = 270, far
	// below serialized n×100+80 = 1080.
	if got := float64(lastDone); got > 400 {
		t.Fatalf("pipeline did not overlap requests: finished at %v", got)
	}
	if f.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", f.QueueLen())
	}
}

func TestFPGALowPowerClockGating(t *testing.T) {
	s := sim.New()
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	f.Preload("bit")
	s.Run()
	idle := f.PowerW()
	f.EnterLowPower()
	if f.PowerW() >= idle {
		t.Fatalf("clock-gated fabric draws %v ≥ idle %v", f.PowerW(), idle)
	}
	if f.Loaded() != "bit" {
		t.Fatal("clock gating must keep the resident bitstream")
	}
	// A resident-bitstream task after gating pays no reconfiguration.
	var done sim.Time
	start := s.Now()
	f.Submit(fpgaTask("bit", 10, 10, func(at sim.Time) { done = at }))
	s.Run()
	if d := float64(done - start); d > 15 {
		t.Fatalf("wake from clock gating cost %v ms", d)
	}
	// Low-power refuses while busy.
	f.Submit(fpgaTask("bit", 50, 50, nil))
	f.EnterLowPower()
	if f.PowerW() < idle {
		t.Fatal("EnterLowPower must be a no-op while work is pending")
	}
	s.Run()
}

func TestFPGANextFreeAt(t *testing.T) {
	s := sim.New()
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	base := f.NextFreeAt()
	f.Submit(fpgaTask("a", 100, 10, nil))
	f.Submit(fpgaTask("a", 100, 10, nil))
	if f.NextFreeAt() <= base {
		t.Fatal("NextFreeAt must grow with queued work")
	}
	s.Run()
}

func TestPerturbDeterministicAndBounded(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	for _, id := range []string{"a", "b", "lstm/GPU wg=256", "x/y/z"} {
		pg, pf := g.Perturb(id), f.Perturb(id)
		if pg != g.Perturb(id) || pf != f.Perturb(id) {
			t.Fatal("perturbation must be deterministic")
		}
		if pg < 0.96 || pg > 1.04 {
			t.Fatalf("GPU perturb %v outside ±4%%", pg)
		}
		if pf < 0.95 || pf > 1.05 {
			t.Fatalf("FPGA perturb %v outside ±5%%", pf)
		}
	}
}

func TestAccelStringers(t *testing.T) {
	s := sim.New()
	if NewGPU(s, "g", AMDW9100).String() == "" || NewFPGA(s, "f", Xilinx7V3).String() == "" {
		t.Fatal("String must render")
	}
}

func TestAccessors(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	if g.Name() != "gpu0" || f.Name() != "fpga0" {
		t.Fatal("names wrong")
	}
	if g.Class() != GPU || f.Class() != FPGA {
		t.Fatal("classes wrong")
	}
	if g.FreqScale() != 1.0 {
		t.Fatalf("nominal freq scale = %v", g.FreqScale())
	}
	g.SetDVFS(2)
	if g.FreqScale() != 0.4 {
		t.Fatalf("deep DVFS freq scale = %v", g.FreqScale())
	}
	if l, tk, busy := g.Launches(); l != 0 || tk != 0 || busy != 0 {
		t.Fatal("fresh board must report zero launch stats")
	}
	if f.Reconfigs() != 0 || !f.Idle() {
		t.Fatal("fresh FPGA state wrong")
	}
}

func TestLaunchStatsAccumulate(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	g.Submit(gpuTask("a", 10, 4, nil))
	g.Submit(gpuTask("a", 10, 4, nil))
	s.Run()
	l, tk, busy := g.Launches()
	if l != 1 || tk != 2 || busy <= 0 {
		t.Fatalf("launch stats = %d launches, %d tasks, %.1f ms", l, tk, busy)
	}
}

func TestPreloadBehaviour(t *testing.T) {
	s := sim.New()
	f := NewFPGA(s, "fpga0", Xilinx7V3)
	f.Preload("bitA")
	if f.Idle() {
		t.Fatal("board must be busy while flashing")
	}
	s.Run()
	if f.Loaded() != "bitA" || !f.Idle() {
		t.Fatalf("preload failed: loaded=%q idle=%v", f.Loaded(), f.Idle())
	}
	if f.Reconfigs() != 1 {
		t.Fatalf("reconfigs = %d", f.Reconfigs())
	}
	// Re-preloading the same bitstream is a no-op.
	f.Preload("bitA")
	if f.Reconfigs() != 1 {
		t.Fatal("same-bitstream preload must be free")
	}
	// Preload with an empty ID is a no-op.
	f.Preload("")
	if f.Loaded() != "bitA" {
		t.Fatal("empty preload must not blank the board")
	}
	// Tasks submitted mid-flash wait for it and then run without another
	// reconfiguration when the IDs match.
	f.Preload("bitB")
	done := false
	f.Submit(fpgaTask("bitB", 10, 10, func(sim.Time) { done = true }))
	s.Run()
	if !done || f.Reconfigs() != 2 {
		t.Fatalf("mid-flash submit broke: done=%v reconfigs=%d", done, f.Reconfigs())
	}
	// Preload refuses while work is queued.
	f.Submit(fpgaTask("bitB", 50, 50, nil))
	f.Preload("bitC")
	if f.Loaded() == "bitC" {
		t.Fatal("preload must not evict under load")
	}
	s.Run()
}

func TestSpecStringsAndTransfer(t *testing.T) {
	if GPU.String() != "GPU" || FPGA.String() != "FPGA" || Class(7).String() == "" {
		t.Fatal("class strings wrong")
	}
	p := PCIeSpec{BandwidthGBs: 8, LatencyUS: 20}
	if p.TransferMS(0) <= 0 || p.TransferMS(1<<30) < p.TransferMS(1<<20) {
		t.Fatal("transfer model wrong")
	}
}
