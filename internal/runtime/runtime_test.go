package runtime

import (
	"math"
	"testing"

	"poly/internal/analysis"
	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/dse"
	"poly/internal/opencl"
	"poly/internal/sched"
	"poly/internal/sim"
)

// benches builds the three architectures for one app on Setting-I.
func benches(t testing.TB, appName string) map[cluster.Architecture]Bench {
	t.Helper()
	app, ok := apps.ByName(appName)
	if !ok {
		t.Fatalf("unknown app %s", appName)
	}
	pa, err := analysis.AnalyzeProgram(app.Program, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := dse.ExploreProgram(pa, cluster.SettingI.GPU, cluster.SettingI.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	out := map[cluster.Architecture]Bench{}
	for _, arch := range []cluster.Architecture{cluster.HomoGPU, cluster.HomoFPGA, cluster.HeterPoly} {
		out[arch] = Bench{Arch: arch, Setting: cluster.SettingI, Prog: app.Program, Spaces: ks}
	}
	return out
}

func TestServeASRLowLoadMeetsQoS(t *testing.T) {
	for arch, b := range benches(t, "ASR") {
		res, err := b.ServeConstantLoad(2, 20000, 1)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if res.Completed == 0 || res.Completed != res.Arrivals {
			t.Fatalf("%v: completed %d of %d", arch, res.Completed, res.Arrivals)
		}
		if res.PlanErrors != 0 {
			t.Fatalf("%v: %d plan errors", arch, res.PlanErrors)
		}
		if res.P99MS > b.Prog.LatencyBoundMS {
			t.Fatalf("%v: p99 %.1f ms violates the 200 ms bound at 2 RPS", arch, res.P99MS)
		}
		if res.EnergyMJ <= 0 || res.AvgPowerW <= 0 {
			t.Fatalf("%v: energy accounting broken: %+v", arch, res)
		}
		node, _ := cluster.Provision(cluster.Config{Arch: arch, Setting: cluster.SettingI, PowerCapW: 500})
		peak := float64(node.NumGPU)*cluster.SettingI.GPU.PeakPowerW + float64(node.NumFPGA)*cluster.SettingI.FPGA.PeakPowerW
		if res.AvgPowerW > peak {
			t.Fatalf("%v: avg power %.1f exceeds node peak %.1f", arch, res.AvgPowerW, peak)
		}
	}
}

func TestOverloadViolatesQoS(t *testing.T) {
	b := benches(t, "ASR")[cluster.HomoGPU]
	res, err := b.ServeConstantLoad(500, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.P99MS <= b.Prog.LatencyBoundMS {
		t.Fatalf("500 RPS should overload 2 GPUs: p99 = %.1f ms", res.P99MS)
	}
	if res.ViolationRatio() == 0 {
		t.Fatal("overload must produce violations")
	}
}

func TestServeDeterministicForSeed(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	a, err := b.ServeConstantLoad(5, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.ServeConstantLoad(5, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.P99MS != c.P99MS || a.Completed != c.Completed || a.EnergyMJ != c.EnergyMJ {
		t.Fatalf("same seed diverged: %+v vs %+v", a, c)
	}
	d, err := b.ServeConstantLoad(5, 10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.P99MS == a.P99MS && d.MeanMS == a.MeanMS {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestGovernorSavesIdleEnergy(t *testing.T) {
	// Two Heter-Poly sessions: one serves a short burst then idles long;
	// with the governor the idle tail must be cheaper than the node's
	// nominal idle power would cost.
	b := benches(t, "ASR")[cluster.HeterPoly]
	sv, node, err := b.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(3)
	w.InjectPoisson(sv, 5, 0, 5000)
	// Idle tail: advance the sim far beyond the last arrival.
	sv.Inject(60000) // lone request keeps Collect honest at the horizon
	res := sv.Collect()
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	nominalIdle := node.IdlePowerW()
	// Instantaneous power at the end of the long idle stretch must be
	// below nominal idle (DVFS floor + FPGA low-power shells).
	var sawLowPower bool
	for i, p := range res.Power.Values {
		if res.Power.Times[i] > 20000 && res.Power.Times[i] < 59000 && p < nominalIdle {
			sawLowPower = true
		}
	}
	if !sawLowPower {
		t.Fatalf("governor never dropped below nominal idle %.1f W", nominalIdle)
	}
}

func TestWorkloadGenerators(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	sv, _, err := b.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(1)
	n := w.InjectPoisson(sv, 100, 0, 10000)
	if n < 800 || n > 1200 {
		t.Fatalf("poisson injected %d arrivals at 100 RPS × 10 s", n)
	}
	if w.InjectPoisson(sv, 0, 0, 1000) != 0 || w.InjectPoisson(sv, 5, 0, 0) != 0 {
		t.Fatal("degenerate poisson args must inject nothing")
	}

	sv2, _, err := b.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := NewWorkload(1).InjectConstant(sv2, 50, 0, 2000); n != 99 {
		t.Fatalf("constant injected %d, want 99", n)
	}

	sv3, _, err := b.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	n3 := NewWorkload(2).InjectRate(sv3, func(t sim.Time) float64 {
		if t < 5000 {
			return 100
		}
		return 10
	}, 10000, 1000)
	if n3 < 400 || n3 > 700 {
		t.Fatalf("rate-driven injected %d", n3)
	}
	if NewWorkload(2).InjectRate(sv3, func(sim.Time) float64 { return 1 }, 0, 100) != 0 {
		t.Fatal("zero duration must inject nothing")
	}
}

// boundedTarget counts injections and panics past a million, so an
// injector that cannot advance its clock fails the test instead of
// hanging it.
type boundedTarget struct{ n int }

func (b *boundedTarget) Inject(sim.Time) {
	if b.n++; b.n > 1_000_000 {
		panic("injector does not terminate")
	}
}

func TestInjectDegenerateRates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		inject func(w *Workload, tgt ArrivalTarget) int
	}{
		{"poisson +Inf", func(w *Workload, tgt ArrivalTarget) int { return w.InjectPoisson(tgt, inf, 0, 1000) }},
		{"poisson NaN", func(w *Workload, tgt ArrivalTarget) int { return w.InjectPoisson(tgt, nan, 0, 1000) }},
		{"poisson -Inf", func(w *Workload, tgt ArrivalTarget) int { return w.InjectPoisson(tgt, -inf, 0, 1000) }},
		{"poisson 1e20", func(w *Workload, tgt ArrivalTarget) int { return w.InjectPoisson(tgt, 1e20, 0, 1000) }},
		{"constant +Inf", func(w *Workload, tgt ArrivalTarget) int { return w.InjectConstant(tgt, inf, 0, 1000) }},
		{"constant NaN", func(w *Workload, tgt ArrivalTarget) int { return w.InjectConstant(tgt, nan, 0, 1000) }},
		{"constant 1e20", func(w *Workload, tgt ArrivalTarget) int { return w.InjectConstant(tgt, 1e20, 0, 1000) }},
		{"rate +Inf", func(w *Workload, tgt ArrivalTarget) int {
			return w.InjectRate(tgt, func(sim.Time) float64 { return inf }, 1000, 100)
		}},
		{"rate sub-ulp step", func(w *Workload, tgt ArrivalTarget) int {
			// Steps this short inject nothing, so the rate function
			// counts the steps instead of the target.
			steps := 0
			return w.InjectRate(tgt, func(sim.Time) float64 {
				if steps++; steps > 1_000_000 {
					panic("InjectRate does not terminate")
				}
				return 10
			}, 1e6, 1e-12)
		}},
	}
	for _, c := range cases {
		tgt := &boundedTarget{}
		if n := c.inject(NewWorkload(1), tgt); n != 0 || tgt.n != 0 {
			t.Errorf("%s: injected %d (target saw %d), want 0", c.name, n, tgt.n)
		}
	}
	// The guard must not touch a finite rate's draw sequence: a rate
	// far above any in use still injects exactly what its gaps give.
	tgt := &boundedTarget{}
	if n := NewWorkload(1).InjectConstant(tgt, 1e5, 0, 1000); n != tgt.n || n < 99_990 || n > 100_000 {
		t.Fatalf("constant 1e5 RPS × 1 s injected %d (target saw %d)", n, tgt.n)
	}
}

// TestNewServerDegenerateOptions: option values that would serve
// without meaning — a NaN bound counts no violation, a NaN warmup
// measures nothing — are errors, never a silent run.
func TestNewServerDegenerateOptions(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		opts Options
	}{
		{"bound NaN", Options{BoundMS: nan}},
		{"bound +Inf", Options{BoundMS: inf}},
		{"bound negative", Options{BoundMS: -1}},
		{"warmup NaN", Options{WarmupMS: nan}},
		{"warmup +Inf", Options{WarmupMS: inf}},
		{"warmup negative", Options{WarmupMS: -1}},
		{"batch wait NaN", Options{BatchWaitMS: nan}},
		{"batch wait +Inf", Options{BatchWaitMS: inf}},
		{"batch wait negative", Options{BatchWaitMS: -4}},
		{"batch cap negative", Options{BatchCap: -4}},
		{"batch cap negative with wait", Options{BatchWaitMS: 4, BatchCap: -4}},
	}
	for _, c := range cases {
		if res, err := b.ServeConstantLoadWith(c.opts, 40, 1000, 1); err == nil {
			t.Errorf("%s: served %d requests, want an error", c.name, res.Completed)
		}
	}
	// A zero BoundMS takes the program's bound, which must be valid too.
	prog := *b.Prog
	prog.LatencyBoundMS = nan
	nanProg := b
	nanProg.Prog = &prog
	if res, err := nanProg.ServeConstantLoadWith(Options{}, 40, 1000, 1); err == nil {
		t.Errorf("program bound NaN: served %d requests, want an error", res.Completed)
	}
	// Zero values keep their defaults, and finite values serve.
	for _, o := range []Options{{}, {BoundMS: 200, WarmupMS: 100, BatchWaitMS: 4, BatchCap: 8}} {
		if _, err := b.ServeConstantLoadWith(o, 40, 1000, 1); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

func TestMaxThroughputCompetitive(t *testing.T) {
	// Fig. 1(a)/Fig. 8 reproduce in *shape*: all three systems sustain
	// QoS-compliant load in the same tens-of-RPS band, and Heter-Poly is
	// competitive with both homogeneous designs despite owning only half
	// of each accelerator pool. (The paper's Poly additionally beats both
	// on absolute max RPS; in this reproduction its decisive win is
	// energy proportionality at matched QoS — see the fig1b/fig10
	// experiments — while max throughput lands within ~20 % of the best
	// baseline. EXPERIMENTS.md discusses the divergence.)
	bs := benches(t, "ASR")
	rps := map[cluster.Architecture]float64{}
	for arch, b := range bs {
		v, err := b.MaxThroughputRPS(64, 8000, 11)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if v <= 0 {
			t.Fatalf("%v: no sustainable throughput", arch)
		}
		rps[arch] = v
	}
	t.Logf("max RPS: GPU=%.1f FPGA=%.1f Poly=%.1f",
		rps[cluster.HomoGPU], rps[cluster.HomoFPGA], rps[cluster.HeterPoly])
	best := rps[cluster.HomoGPU]
	if rps[cluster.HomoFPGA] > best {
		best = rps[cluster.HomoFPGA]
	}
	if rps[cluster.HeterPoly] < 0.75*best {
		t.Fatalf("Heter-Poly (half of each pool) fell behind the best baseline by >25%%: %v", rps)
	}
}

func TestEnergyProportionalityOrdering(t *testing.T) {
	// The paper's central claim: Poly improves energy proportionality
	// over both baselines without sacrificing QoS. Measure the power
	// curve at 25/50/75/100 % of each system's own maximum and compare
	// EP (Eq. 1 is computed by internal/metrics; here a coarse proxy —
	// the average power as a fraction of full-load power, lower is more
	// proportional — keeps this test fast).
	bs := benches(t, "ASR")
	frac := map[cluster.Architecture]float64{}
	for arch, b := range bs {
		m, err := b.MaxThroughputRPS(64, 8000, 11)
		if err != nil {
			t.Fatal(err)
		}
		var sum, peak float64
		for _, l := range []float64{0.25, 0.5, 0.75, 1.0} {
			r, err := b.ServeConstantLoad(l*m, 10000, 11)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.AvgPowerW
			peak = r.AvgPowerW
		}
		frac[arch] = sum / 4 / peak
	}
	t.Logf("mean/peak power: GPU=%.2f FPGA=%.2f Poly=%.2f",
		frac[cluster.HomoGPU], frac[cluster.HomoFPGA], frac[cluster.HeterPoly])
	if frac[cluster.HeterPoly] >= frac[cluster.HomoGPU] {
		t.Fatalf("Poly must be more proportional than Homo-GPU: %v", frac)
	}
	if frac[cluster.HeterPoly] >= 1.1*frac[cluster.HomoFPGA] {
		t.Fatalf("Poly must at least match Homo-FPGA's proportionality: %v", frac)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, nil, Options{}); err == nil {
		t.Fatal("nil arguments accepted")
	}
	app, _ := apps.ByName("ASR")
	pa, _ := analysis.AnalyzeProgram(app.Program, analysis.Options{})
	ks, _ := dse.ExploreProgram(pa, cluster.SettingI.GPU, cluster.SettingI.FPGA)
	planner, err := sched.New(app.Program, ks)
	if err != nil {
		t.Fatal(err)
	}
	empty := &cluster.Node{Sim: sim.New()}
	if _, err := NewServer(empty, app.Program, planner, Options{}); err == nil {
		t.Fatal("node without accelerators accepted")
	}
}

func TestBenchRejectsUnknownArch(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	b.Arch = cluster.Architecture(9)
	if _, _, err := b.NewSession(Options{}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

var _ = opencl.Program{} // keep the import for the Bench field's type
