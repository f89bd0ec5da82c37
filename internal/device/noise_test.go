package device

import (
	"math"
	"testing"

	"poly/internal/fault"
	"poly/internal/sim"
)

// fpgaExecMS submits one task for impl and runs the simulator, returning
// the task's execution time (start to completion).
func fpgaExecMS(t *testing.T, s *sim.Simulator, f *FPGADevice, impl string) float64 {
	t.Helper()
	var start, end sim.Time
	task := fpgaTask(impl, 100, 100, nil)
	task.Owner = &funcOwner{
		start: func(at sim.Time) { start = at },
		done:  func(at sim.Time) { end = at },
	}
	f.Submit(task)
	s.Run()
	if end == 0 {
		t.Fatalf("task for %q never completed", impl)
	}
	return float64(end - start)
}

// wantNoise fails the test unless an FPGA execution of impl took exactly
// LatencyMS × the board's noise factor for that impl.
func wantNoise(t *testing.T, f *FPGADevice, impl string, gotMS float64) {
	t.Helper()
	want := 100 * perturb(f.Name(), impl, 0.05)
	if math.Abs(gotMS-want) > 1e-9 {
		t.Fatalf("%s exec = %v ms, want %v (noise of %q)", impl, gotMS, want, impl)
	}
}

// TestFPGANoiseFollowsResidentBitstream checks the memoized execution
// noise tracks the resident bitstream through every way it can change: a
// foreground reconfigure, a background preload, and an aborted load
// followed by a successful retry.
func TestFPGANoiseFollowsResidentBitstream(t *testing.T) {
	// The impls must carry distinct noise factors, or a stale memo would
	// go unnoticed.
	if perturb("fpga0", "a", 0.05) == perturb("fpga0", "b", 0.05) ||
		perturb("fpga0", "b", 0.05) == perturb("fpga0", "", 0.05) {
		t.Fatal("test impls share a noise factor")
	}

	t.Run("foreground reconfigure", func(t *testing.T) {
		s := sim.New()
		f := NewFPGA(s, "fpga0", Xilinx7V3)
		wantNoise(t, f, "a", fpgaExecMS(t, s, f, "a"))
		wantNoise(t, f, "b", fpgaExecMS(t, s, f, "b"))
		if f.Reconfigs() != 2 {
			t.Fatalf("reconfigs = %d, want 2", f.Reconfigs())
		}
	})

	t.Run("background preload", func(t *testing.T) {
		s := sim.New()
		f := NewFPGA(s, "fpga0", Xilinx7V3)
		wantNoise(t, f, "a", fpgaExecMS(t, s, f, "a"))
		f.Preload("b")
		s.Run()
		wantNoise(t, f, "b", fpgaExecMS(t, s, f, "b"))
		if f.Reconfigs() != 2 {
			t.Fatalf("reconfigs = %d, want 2 (the b task must use the preload)", f.Reconfigs())
		}
	})

	t.Run("aborted then successful reconfigure", func(t *testing.T) {
		// Find a seed whose first load attempt on the board aborts and
		// whose second succeeds; the injector's draws are a pure function
		// of (seed, board, impl, attempt number).
		cfg, seed := fault.Config{}, int64(0)
		for ; seed < 1000; seed++ {
			c, err := fault.Preset("reconfig", seed)
			if err != nil {
				t.Fatal(err)
			}
			probe := fault.New(c, []string{"fpga0"})
			if probe.ReconfigAborts("fpga0", "b", 0) && !probe.ReconfigAborts("fpga0", "b", 0) {
				cfg = c
				break
			}
		}
		if seed == 1000 {
			t.Fatal("no seed aborts the first load and accepts the second")
		}
		s := sim.New()
		f := NewFPGA(s, "fpga0", Xilinx7V3)
		f.Preload("a")
		s.Run()
		f.SetFaultHook(fault.New(cfg, []string{"fpga0"}))
		wantNoise(t, f, "b", fpgaExecMS(t, s, f, "b"))
		if f.Reconfigs() != 3 || f.Loaded() != "b" {
			t.Fatalf("reconfigs = %d, loaded = %q; want the preload, one aborted and one good load of b",
				f.Reconfigs(), f.Loaded())
		}
	})
}
