// Command polysim serves one workload on one node architecture and
// prints the QoS and power outcome.
//
// Usage:
//
//	polysim -app ASR -arch heter -rps 50 -duration 20s
//	polysim -app FQT -arch gpu -trace          # 24 h trace replay (compressed)
//	polysim -app ASR -arch heter -rps 120 -batch-wait 4   # admission batching on
//	polysim -app ASR -nodes 4 -rps 160         # 4-node fleet behind the router
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"poly"
	"poly/internal/fault"
	"poly/internal/fleet"
	"poly/internal/prof"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

func main() {
	app := flag.String("app", "ASR", "benchmark name (ASR, FQT, IR, CS, MF, WT)")
	archName := flag.String("arch", "heter", "architecture: gpu, fpga, or heter")
	rps := flag.Float64("rps", 40, "offered load in requests/second")
	duration := flag.Duration("duration", 20*time.Second, "simulated serving span")
	seed := flag.Int64("seed", 1, "workload seed")
	useTrace := flag.Bool("trace", false, "replay the 24 h utilization trace (compressed to 10 min) instead of constant load")
	setting := flag.String("setting", "I", "hardware setting: I, II, or III")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (and, with -telemetry, /metrics or one /metrics/n<i> per fleet node) on this address (e.g. localhost:6060)")
	useTelemetry := flag.Bool("telemetry", false, "record runtime telemetry (metrics + spans) for the live /metrics scrape (needs -pprof)")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace JSON of the run to this file (implies -telemetry)")
	flightOut := flag.String("flight-out", "", "write the QoS flight recorder to this file as Perfetto/Chrome trace JSON (implies -telemetry): the frozen pre-incident window if a violation or board-down trigger fired, else the live tail")
	faults := flag.String("faults", "", "fault scenario: off, slowdowns, boardfail, reconfig, mispredict, or chaos")
	faultSeed := flag.Int64("fault-seed", 1, "fault scenario seed (same seed, same fault plan)")
	batchWait := flag.Float64("batch-wait", 0, "admission-batch staging max wait in ms (0 = batching off)")
	batchCap := flag.Int("batch", 0, "admission-batch group size cap (0 = planner's widest GPU batch; needs -batch-wait)")
	nodes := flag.Int("nodes", 1, "fleet size: shard the cluster into N nodes behind the router (1 = direct single-node path)")
	fleetPolicy := flag.String("fleet-policy", "binpack", "fleet routing policy: binpack, spread, or least-util (needs -nodes > 1)")
	flag.Parse()
	if err := validate(cliFlags{
		rps: *rps, duration: *duration, nodes: *nodes, batchWait: *batchWait, batchCap: *batchCap,
		telemetry: *useTelemetry, pprof: *pprofAddr, traceOut: *traceOut, flightOut: *flightOut,
	}); err != nil {
		fail(err)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer stopProf()
	var rec *telemetry.Recorder
	if *nodes <= 1 && (*useTelemetry || *traceOut != "" || *flightOut != "") {
		rec = telemetry.NewWithOptions(recorderOptions(*traceOut, *flightOut))
		prof.Handle("/metrics", rec.MetricsHandler())
		if *pprofAddr != "" {
			fmt.Printf("telemetry: http://%s/metrics (Prometheus text)\n", *pprofAddr)
		}
	}
	prof.Serve(*pprofAddr)

	arch, err := pickArch(*archName)
	if err != nil {
		fail(err)
	}
	st, err := pickSetting(*setting)
	if err != nil {
		fail(err)
	}
	fw, err := poly.Benchmark(*app)
	if err != nil {
		fail(err)
	}
	bench, err := poly.NewBench(fw, arch, st)
	if err != nil {
		fail(err)
	}

	var telSink telemetry.Sink
	if rec != nil {
		telSink = rec
	}
	faultCfg, err := fault.Preset(*faults, *faultSeed)
	if err != nil {
		fail(err)
	}
	var faultsOpt *fault.Config
	if faultCfg.Enabled() {
		faultsOpt = &faultCfg
	}
	if *nodes > 1 {
		serveFleet(bench, fleetConfig{
			nodes: *nodes, policyName: *fleetPolicy,
			app: *app, setting: st.Name,
			rps: *rps, durationMS: float64(duration.Milliseconds()),
			seed: *seed, useTrace: *useTrace,
			telemetry: *useTelemetry, pprofAddr: *pprofAddr,
			opts: runtime.Options{Faults: faultsOpt, BatchWaitMS: *batchWait, BatchCap: *batchCap},
		})
		return
	}

	var res poly.Result
	var inj *fault.Injector
	if *useTrace {
		tr := poly.SynthesizeTrace(*seed)
		const compressedMS = 600_000.0
		compress := tr.DurationMS() / compressedMS
		sv, _, err := bench.NewSession(runtime.Options{WarmupMS: 5_000, Telemetry: telSink, Faults: faultsOpt,
			BatchWaitMS: *batchWait, BatchCap: *batchCap})
		if err != nil {
			fail(err)
		}
		w := runtime.NewWorkload(*seed)
		w.InjectRate(sv, func(at sim.Time) float64 {
			return *rps * tr.At(float64(at)*compress)
		}, compressedMS, 5_000)
		res = sv.Collect()
		inj = sv.FaultInjector()
	} else {
		durationMS := float64(duration.Milliseconds())
		warm := 0.2 * durationMS
		if warm > 5000 {
			warm = 5000
		}
		sv, _, err := bench.NewSession(runtime.Options{WarmupMS: warm, Telemetry: telSink, Faults: faultsOpt,
			BatchWaitMS: *batchWait, BatchCap: *batchCap})
		if err != nil {
			fail(err)
		}
		runtime.NewWorkload(*seed).InjectPoisson(sv, *rps, 0, sim.Time(durationMS))
		res = sv.Collect()
		inj = sv.FaultInjector()
	}

	fmt.Printf("%s on %s (%s):\n", *app, arch, st.Name)
	if inj != nil {
		fmt.Println(indent(inj.Summary(), "  "))
	}
	fmt.Println(indent(res.String(), "  "))
	if *traceOut != "" {
		if err := writeTraceFile(rec, *traceOut); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev)\n",
			rec.TraceEventCount(), *traceOut)
		if d := rec.TraceDropped(); d > 0 {
			fmt.Printf("trace: %d events dropped over the buffer cap\n", d)
		}
	}
	if *flightOut != "" {
		if err := writeFlightFile(rec, *flightOut); err != nil {
			fail(err)
		}
		if cause, atMS, ok := rec.FlightTriggered(); ok {
			fmt.Printf("flight: triggered by %s at %.1f ms -> %s (load at https://ui.perfetto.dev)\n",
				cause, atMS, *flightOut)
		} else {
			fmt.Printf("flight: no trigger fired; wrote live tail -> %s (load at https://ui.perfetto.dev)\n",
				*flightOut)
		}
	}
}

// fleetConfig carries the CLI surface of the multi-node path.
type fleetConfig struct {
	nodes      int
	policyName string
	app        string
	setting    string
	rps        float64
	durationMS float64
	seed       int64
	useTrace   bool
	telemetry  bool
	pprofAddr  string
	opts       runtime.Options
}

// serveFleet is the -nodes N path: the same workload drivers as the
// single-node path, but arrivals go through the fleet router and the
// report covers every shard plus the aggregate.
func serveFleet(bench poly.Bench, cfg fleetConfig) {
	pol, err := fleet.ParsePolicy(cfg.policyName)
	if err != nil {
		fail(err)
	}
	ropts := cfg.opts
	if cfg.useTrace {
		ropts.WarmupMS = 5_000
	} else {
		ropts.WarmupMS = 0.2 * cfg.durationMS
		if ropts.WarmupMS > 5000 {
			ropts.WarmupMS = 5000
		}
	}
	f, err := fleet.New(bench, fleet.Options{
		Nodes: cfg.nodes, Policy: pol,
		Runtime: ropts, WithTelemetry: cfg.telemetry,
	})
	if err != nil {
		fail(err)
	}
	if cfg.telemetry {
		for i := 0; i < f.Nodes(); i++ {
			prof.Handle(fmt.Sprintf("/metrics/n%d", i), f.Recorder(i).MetricsHandler())
		}
		if cfg.pprofAddr != "" {
			fmt.Printf("telemetry: http://%s/metrics/n0 .. /metrics/n%d (one per node, Prometheus text)\n",
				cfg.pprofAddr, f.Nodes()-1)
		}
	}
	w := runtime.NewWorkload(cfg.seed)
	if cfg.useTrace {
		tr := poly.SynthesizeTrace(cfg.seed)
		const compressedMS = 600_000.0
		compress := tr.DurationMS() / compressedMS
		w.InjectRate(f, func(at sim.Time) float64 {
			return cfg.rps * tr.At(float64(at)*compress)
		}, compressedMS, 5_000)
	} else {
		w.InjectPoisson(f, cfg.rps, 0, sim.Time(cfg.durationMS))
	}
	res := f.Collect()
	fmt.Printf("%s on %d-node %s fleet (%s):\n", cfg.app, cfg.nodes, bench.Arch, cfg.setting)
	fmt.Println(indent(res.String(), "  "))
}

// cliFlags are the flag values validate checks.
type cliFlags struct {
	rps, batchWait             float64
	duration                   time.Duration
	nodes, batchCap            int
	telemetry                  bool
	pprof, traceOut, flightOut string
}

// validate rejects out-of-range or pointless flag combinations before
// anything is built.
func validate(f cliFlags) error {
	switch {
	case math.IsNaN(f.rps) || math.IsInf(f.rps, 0) || f.rps < 0:
		return fmt.Errorf("-rps %v: want a finite rate >= 0", f.rps)
	case f.duration <= 0:
		return fmt.Errorf("-duration %v: want a positive span", f.duration)
	case f.nodes < 1:
		return fmt.Errorf("-nodes %d: want at least 1", f.nodes)
	case math.IsNaN(f.batchWait) || math.IsInf(f.batchWait, 0) || f.batchWait < 0:
		return fmt.Errorf("-batch-wait %v: want a finite wait >= 0 ms", f.batchWait)
	case f.batchCap < 0:
		return fmt.Errorf("-batch %d: want a cap >= 0", f.batchCap)
	case f.batchCap > 0 && f.batchWait == 0:
		return fmt.Errorf("-batch %d needs -batch-wait > 0", f.batchCap)
	case f.nodes > 1 && (f.traceOut != "" || f.flightOut != ""):
		return fmt.Errorf("-trace-out/-flight-out record one session; use -nodes 1")
	case f.telemetry && f.pprof == "" && f.traceOut == "" && f.flightOut == "":
		return fmt.Errorf("-telemetry alone records what nothing reads: add -pprof <addr> to scrape /metrics live")
	}
	return nil
}

// recorderOptions keeps a trace only for -trace-out and a flight ring
// only for -flight-out: a recorder that serves just the live /metrics
// scrape keeps neither.
func recorderOptions(traceOut, flightOut string) telemetry.Options {
	var o telemetry.Options
	if traceOut == "" {
		o.TraceEventCap = -1
	}
	if flightOut == "" {
		o.FlightRingCap = -1
	}
	return o
}

func writeFlightFile(rec *telemetry.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteFlight(f)
}

func writeTraceFile(rec *telemetry.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteTrace(f)
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

func pickArch(s string) (poly.Architecture, error) {
	switch s {
	case "gpu":
		return poly.HomoGPU, nil
	case "fpga":
		return poly.HomoFPGA, nil
	case "heter", "poly":
		return poly.HeterPoly, nil
	}
	return 0, fmt.Errorf("unknown architecture %q (want gpu, fpga, or heter)", s)
}

func pickSetting(s string) (poly.Setting, error) {
	switch s {
	case "I", "1":
		return poly.SettingI(), nil
	case "II", "2":
		return poly.SettingII(), nil
	case "III", "3":
		return poly.SettingIII(), nil
	}
	return poly.Setting{}, fmt.Errorf("unknown setting %q", s)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polysim:", err)
	os.Exit(1)
}
