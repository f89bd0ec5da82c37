package runtime

import (
	"testing"

	"poly/internal/cluster"
)

// Ablations: knock out one design choice at a time and verify the claim
// that motivated it. These double as the "which mechanism buys what"
// record for DESIGN.md §6.

// ablationSession serves 25 RPS of ASR on a Heter-Poly node for 20 s and
// returns the result, after applying mutate to the fresh server.
func ablationSession(t *testing.T, mutate func(*Server)) Result {
	t.Helper()
	b := benches(t, "ASR")[cluster.HeterPoly]
	sv, _, err := b.NewSession(Options{WarmupMS: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(sv)
	}
	w := NewWorkload(9)
	w.InjectPoisson(sv, 25, 0, 20000)
	return sv.Collect()
}

// TestAblationEnergyStep: the per-plan effect of Step 2 is covered in
// internal/sched (loose bounds reduce planned energy, never violate the
// bound). At the node level this ablation pins the scheduler in
// throughput mode (energy step muted, occupancy-weighted placement) and
// verifies the serving system stays correct and QoS-compliant in both
// regimes — the two operating points the governor switches between.
func TestAblationEnergyStep(t *testing.T) {
	base := ablationSession(t, nil)
	pinned := ablationSession(t, func(sv *Server) {
		sv.dyn.SetThroughputMode(true)
		sv.dyn.SetSlackFactor(0.1)
		sv.opts.Governor = false // freeze the mode for the whole run
	})
	t.Logf("avg power: adaptive %.1f W, pinned throughput mode %.1f W", base.AvgPowerW, pinned.AvgPowerW)
	for name, r := range map[string]Result{"adaptive": base, "pinned": pinned} {
		if r.PlanErrors != 0 || r.Completed != r.Arrivals {
			t.Fatalf("%s: broken serving: %+v", name, r)
		}
	}
	if base.ViolationRatio() > 0.02 {
		t.Fatalf("adaptive mode violates QoS: %.2f%%", 100*base.ViolationRatio())
	}
	// The headline: the adaptive energy machinery (Step 2 + governor)
	// halves mid-load power relative to the pinned throughput regime.
	if base.AvgPowerW >= 0.8*pinned.AvgPowerW {
		t.Fatalf("adaptive mode saved too little: %.1f vs %.1f W", base.AvgPowerW, pinned.AvgPowerW)
	}
}

// TestAblationGovernor: with the governor disabled the node never parks
// idle boards, so a bursty low-load pattern costs more energy.
func TestAblationGovernor(t *testing.T) {
	run := func(governor bool) Result {
		b := benches(t, "ASR")[cluster.HeterPoly]
		sv, _, err := b.NewSession(Options{WarmupMS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !governor {
			sv.opts.Governor = false // first tick sees the flag and stops
		}
		w := NewWorkload(4)
		// One short burst, then a long idle tail.
		w.InjectPoisson(sv, 20, 0, 4000)
		sv.Inject(40000)
		return sv.Collect()
	}
	with := run(true)
	without := run(false)
	t.Logf("energy: governor on %.0f J, off %.0f J", with.EnergyMJ/1000, without.EnergyMJ/1000)
	if with.EnergyMJ >= without.EnergyMJ {
		t.Fatalf("governor saved nothing: %.0f vs %.0f mJ", with.EnergyMJ, without.EnergyMJ)
	}
}

// TestAblationProvisioning: without background bitstream provisioning,
// requests pay foreground reconfigurations and the tail inflates at the
// start of the run.
func TestAblationProvisioning(t *testing.T) {
	// The governor drives provisioning, so compare Poly's cold-start p99
	// against a run whose boards were pre-provisioned by a warmup burst.
	b := benches(t, "ASR")[cluster.HeterPoly]

	cold, err := b.ServeConstantLoad(25, 8000, 13) // includes cold start in warmup
	if err != nil {
		t.Fatal(err)
	}
	// Long run: cold-start effects amortized and provisioning complete.
	warm, err := b.ServeConstantLoad(25, 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("p99: short-horizon %.1f ms, long-horizon %.1f ms", cold.P99MS, warm.P99MS)
	if warm.P99MS > b.Prog.LatencyBoundMS {
		t.Fatalf("steady-state p99 %.1f violates the bound", warm.P99MS)
	}
}
