package sched

import (
	"testing"
	"testing/quick"

	"poly/internal/device"
)

// TestSchedulePropertyRandomDeviceStates: for arbitrary (bounded) device
// backlogs, DVFS points, and resident bitstreams, every plan the
// scheduler emits must be structurally valid — dependencies respected, no
// same-board time overlap beyond pipelining rules, makespan = max end,
// non-negative energy — and deterministic for identical inputs.
func TestSchedulePropertyRandomDeviceStates(t *testing.T) {
	s, prog, ks := buildSched(t)
	k1impl := ks.FPGA["k1"].MinLatency()
	f := func(backlog [6]uint16, freqSel uint8, loadK1 bool, bound uint16) bool {
		devs := settingIDevices()
		for i := range devs {
			devs[i].FreeAtMS = float64(backlog[i] % 500)
		}
		if freqSel%2 == 1 {
			devs[0].FreqScale = 0.7
		}
		if loadK1 {
			devs[1].LoadedImpl = ImplID(k1impl)
		}
		b := float64(bound%400) + 50
		p1, err := s.Schedule(devs, b)
		if err != nil {
			return false
		}
		p2, err := s.Schedule(devs, b)
		if err != nil {
			return false
		}
		// Determinism.
		for k, a1 := range p1.Assignments {
			a2 := p2.Assignments[k]
			if a1.Device != a2.Device || a1.Impl != a2.Impl || a1.StartMS != a2.StartMS {
				return false
			}
		}
		// Structural validity.
		for _, e := range prog.Edges() {
			if p1.Assignment(e.To).StartMS < p1.Assignment(e.From).EndMS-1e-9 {
				return false
			}
		}
		var max float64
		for _, a := range p1.Assignments {
			if a.EndMS < a.StartMS || a.ExecMS < 0 || a.CommitMS < 0 {
				return false
			}
			if a.EndMS > max {
				max = a.EndMS
			}
		}
		return p1.MakespanMS == max && p1.EnergyMJ >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleOnlyGPUsOrOnlyFPGAs: degenerate nodes still plan.
func TestScheduleOnlyGPUsOrOnlyFPGAs(t *testing.T) {
	s, prog, _ := buildSched(t)
	gpusOnly := []DeviceState{
		{Name: "gpu0", Class: device.GPU, FreqScale: 1},
		{Name: "gpu1", Class: device.GPU, FreqScale: 1},
	}
	p, err := s.Schedule(gpusOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assignments) != len(prog.Kernels()) {
		t.Fatal("incomplete plan on GPU-only node")
	}
	fpgasOnly := []DeviceState{
		{Name: "fpga0", Class: device.FPGA, ReconfigMS: 80, FreqScale: 1},
	}
	p, err = s.Schedule(fpgasOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Assignments {
		if a.Impl.Platform != device.FPGA {
			t.Fatal("non-FPGA impl on FPGA-only node")
		}
	}
}

// TestScheduleExtremeBacklogDegradesGracefully: absurd backlogs produce
// late but valid plans, never panics or negative spans.
func TestScheduleExtremeBacklogDegradesGracefully(t *testing.T) {
	s, _, _ := buildSched(t)
	devs := settingIDevices()
	for i := range devs {
		devs[i].FreeAtMS = 1e7
	}
	p, err := s.Schedule(devs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.MakespanMS < 1e7 {
		t.Fatal("backlog ignored")
	}
	if p.SlackMS() > 0 {
		t.Fatal("slack cannot be positive under a 10,000 s backlog")
	}
}
