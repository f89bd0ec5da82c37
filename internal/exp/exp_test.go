package exp

import (
	"strings"
	"testing"

	"poly/internal/apps"
	"poly/internal/parallel"
	"poly/internal/telemetry"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig1c", "fig1d", "fig1ef", "fig6", "table2",
		"fig7", "fig8", "fig8batch", "fig9", "fig10", "fig11", "fig12",
		"qos", "accuracy", "fig13", "fig14",
	}
	have := map[string]bool{}
	for _, e := range List() {
		have[e[0]] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, err := Run("bogus", nil); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestLSTMParetoExperiment(t *testing.T) {
	r, err := Run("fig1c", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := r.(*ParetoResult)
	if len(p.GPU) < 2 || len(p.FPG) < 2 {
		t.Fatalf("frontiers too small: %d GPU, %d FPGA", len(p.GPU), len(p.FPG))
	}
	// The FPGA frontier must expose a real energy-vs-latency trade-off:
	// its fastest point draws meaningfully more power than its greenest.
	minP, maxP := p.FPG[0].PowerW, p.FPG[0].PowerW
	for _, pt := range p.FPG {
		if pt.PowerW < minP {
			minP = pt.PowerW
		}
		if pt.PowerW > maxP {
			maxP = pt.PowerW
		}
	}
	if maxP < 1.5*minP {
		t.Fatalf("FPGA frontier has no power spread: %.1f..%.1f W", minP, maxP)
	}
	if !strings.Contains(r.Render(), "Pareto") {
		t.Fatal("render missing")
	}
}

func TestKernelBreakdownExperiment(t *testing.T) {
	r, err := Run("fig1ef", nil)
	if err != nil {
		t.Fatal(err)
	}
	b := r.(*BreakdownResult)
	if len(b.Rows) != 4 {
		t.Fatalf("ASR breakdown rows = %d, want 4 kernels", len(b.Rows))
	}
	var gpuTotal, fpgaTotal float64
	for _, row := range b.Rows {
		if row.GPULatencyMS <= 0 || row.FPGALatencyMS <= 0 || row.GPUEnerMJ <= 0 || row.FPGAEnrMJ <= 0 {
			t.Fatalf("implausible row: %+v", row)
		}
		gpuTotal += row.GPUEnerMJ
		fpgaTotal += row.FPGAEnrMJ
	}
	// Fig. 1(e)'s qualitative claim: over the whole request, the FPGA
	// designs are more energy-frugal than the GPU designs (individual
	// kernels may flip — batching makes the dense K1 cheap on the GPU).
	if fpgaTotal >= gpuTotal {
		t.Fatalf("FPGA total energy %.0f ≥ GPU total %.0f", fpgaTotal, gpuTotal)
	}
}

func TestScheduleExperiment(t *testing.T) {
	r, err := Run("fig6", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := r.(*ScheduleResult)
	if len(s.Step1) != 4 || len(s.Final) != 4 {
		t.Fatalf("schedule rows: %d/%d", len(s.Step1), len(s.Final))
	}
	if s.MakespanMS <= 0 || s.MakespanMS > 200 {
		t.Fatalf("final makespan %.1f outside (0,200]", s.MakespanMS)
	}
	// Step 2 must not increase energy.
	if s.EnergyFinal > s.EnergyStep1 {
		t.Fatalf("energy step raised energy: %.0f → %.0f", s.EnergyStep1, s.EnergyFinal)
	}
}

func TestDesignSpacesExperiment(t *testing.T) {
	r, err := Run("table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := r.(*DesignSpaceResult)
	// Table II: 15 kernels across the six applications... our apps total:
	// 4+3+3+2+2+3 = 17 kernels.
	if len(d.Rows) != 17 {
		t.Fatalf("rows = %d, want 17", len(d.Rows))
	}
	appsSeen := map[string]bool{}
	for _, row := range d.Rows {
		appsSeen[row.App] = true
		if row.GPUFeasible == 0 || row.FPGAFeas == 0 {
			t.Fatalf("%s/%s has an empty feasible space", row.App, row.Kernel)
		}
		if row.GPUPareto == 0 || row.FPGAPareto == 0 {
			t.Fatalf("%s/%s has an empty frontier", row.App, row.Kernel)
		}
		if len(row.Patterns) == 0 {
			t.Fatalf("%s/%s lists no patterns", row.App, row.Kernel)
		}
	}
	if len(appsSeen) != len(apps.Names()) {
		t.Fatalf("apps covered = %d, want %d", len(appsSeen), len(apps.Names()))
	}
}

func TestTraceExperiment(t *testing.T) {
	r, err := Run("fig11", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.(*TraceResult)
	if tr.Trace.Mean() < 0.2 || tr.Trace.Mean() > 0.8 {
		t.Fatalf("trace mean %.2f implausible", tr.Trace.Mean())
	}
	if tr.Trace.Peak() < tr.Trace.Mean() {
		t.Fatal("peak below mean")
	}
}

func TestModelAccuracyExperiment(t *testing.T) {
	r, err := Run("accuracy", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := r.(*AccuracyResult)
	// 6 apps × (2..4 kernels) × 2 platforms.
	if len(a.Rows) < 20 {
		t.Fatalf("accuracy rows = %d", len(a.Rows))
	}
	// The paper claims ≤6 % model error; our device simulator perturbs
	// executions by at most ±5 %, and the harness must confirm the model
	// matches within that band.
	if a.MaxAbsErr > 0.06 {
		t.Fatalf("max model error %.1f%% exceeds the 6%% claim", 100*a.MaxAbsErr)
	}
	if a.MeanAbsErr <= 0 {
		t.Fatal("zero mean error is implausible with perturbation on")
	}
}

// renderAt runs one experiment cold (caches cleared) at a given pool
// size and returns its rendered text.
func renderAt(t *testing.T, id string, workers int) string {
	t.Helper()
	parallel.SetWorkers(workers)
	ResetCaches()
	r, err := Run(id, nil)
	if err != nil {
		t.Fatalf("%s with workers=%d: %v", id, workers, err)
	}
	return r.Render()
}

// TestParallelSweepDeterminism is the engine's core guarantee: a sweep
// run on N workers renders bit-identically to the serial engine. fig1c
// exercises the DSE fan-out and Pareto merge; fig1a exercises the
// simulation harness (maxRPS searches plus the arch × load grid).
func TestParallelSweepDeterminism(t *testing.T) {
	defer func() {
		parallel.SetWorkers(0)
		ResetCaches()
	}()
	t.Run("fig1c", func(t *testing.T) {
		serial := renderAt(t, "fig1c", 1)
		for _, w := range []int{2, 8} {
			if par := renderAt(t, "fig1c", w); par != serial {
				t.Fatalf("fig1c render differs at workers=%d:\n--- serial ---\n%s--- workers=%d ---\n%s", w, serial, w, par)
			}
		}
	})
	t.Run("fig1a", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fig1a sweep takes tens of seconds; skipped with -short")
		}
		serial := renderAt(t, "fig1a", 1)
		if par := renderAt(t, "fig1a", 4); par != serial {
			t.Fatalf("fig1a render differs at workers=4:\n--- serial ---\n%s--- workers=4 ---\n%s", serial, par)
		}
	})
}

// TestExperimentSinkRecordsSessions: the sink handed to Run reaches the
// single-node serving sessions an experiment builds. fig1d, the cheapest
// serving experiment, must fill a pool-safe metrics recorder with spans,
// node and board resource gauges, stage attribution, and SLO burn state.
func TestExperimentSinkRecordsSessions(t *testing.T) {
	defer func() {
		parallel.SetWorkers(0)
		ResetCaches()
	}()
	parallel.SetWorkers(2)
	ResetCaches()
	rec := telemetry.NewWithOptions(telemetry.Options{MetricsOnly: true})
	if _, err := Run("fig1d", rec); err != nil {
		t.Fatal(err)
	}
	if rec.SpanTotal() == 0 {
		t.Fatal("fig1d recorded no spans into the experiment sink")
	}
	var buf strings.Builder
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`poly_node_allocatable{resource="compute_slots"}`, "poly_board_allocatable{",
		`poly_stage_latency_ms_count{stage="exec"}`, "poly_slo_burn_rate{",
		"poly_plan_cache_hits_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

func TestGeomeanAndHelpers(t *testing.T) {
	if g := geomean([]float64{1, 100}); g < 9.9 || g > 10.1 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 1}) != 0 {
		t.Fatal("degenerate geomeans must be 0")
	}
	keys := sortedKeys(map[string]int{"b": 1, "a": 2})
	if keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("sortedKeys = %v", keys)
	}
	if len(Archs()) != 3 {
		t.Fatal("three architectures expected")
	}
}
