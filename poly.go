// Package poly is a library-scale reproduction of "Poly: Efficient
// Heterogeneous System and Application Management for Interactive
// Applications" (HPCA 2019): an OpenCL-style optimization framework for
// datacenter leaf nodes that serve QoS-sensitive workloads on mixed
// GPU/FPGA hardware.
//
// The library has two halves, mirroring the paper:
//
//   - Offline: Compile parses an annotated program (nine parallel
//     patterns over an OpenCL-like kernel DAG), characterizes every
//     pattern, applies local and global optimization, and explores the
//     per-kernel design space with analytical GPU/FPGA models, keeping
//     the Pareto-optimal implementations.
//
//   - Runtime: NewBench provisions a simulated heterogeneous node under
//     a power cap (Homo-GPU, Homo-FPGA, or Heter-Poly) and serves
//     open-loop request load through the two-step runtime kernel
//     scheduler (latency optimization, then slack-driven energy
//     optimization) with a monitor/optimizer feedback loop.
//
// Quick start:
//
//	fw, _ := poly.Benchmark("ASR")
//	bench, _ := poly.NewBench(fw, poly.HeterPoly, poly.SettingI())
//	res, _ := bench.ServeConstantLoad(50, 20_000, 1)
//	fmt.Printf("p99 = %.1f ms at %.1f W\n", res.P99MS, res.AvgPowerW)
//
// The six benchmarks of the paper's Table II (ASR, FQT, IR, CS, MF, WT)
// ship with the library; Compile accepts new applications written in the
// annotation language documented in internal/opencl. Every table and
// figure of the paper's evaluation is regenerated by the experiment
// harness (Experiments / RunExperiment, or cmd/polybench).
package poly

import (
	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/exp"
	"poly/internal/parallel"
	"poly/internal/runtime"
	"poly/internal/trace"
)

// Framework is a compiled Poly application: the analyzed kernel DAG plus
// cached per-setting design spaces.
type Framework = core.Framework

// Bench couples an application with a provisioned node architecture; its
// methods serve load and report QoS/power outcomes.
type Bench = runtime.Bench

// Result summarizes one serving run (tail latencies, violations, power,
// energy, per-class task counts).
type Result = runtime.Result

// Architecture selects how a node spends its accelerator power budget.
type Architecture = cluster.Architecture

// The three system architectures of the paper (Section II-A).
const (
	HomoGPU   = cluster.HomoGPU
	HomoFPGA  = cluster.HomoFPGA
	HeterPoly = cluster.HeterPoly
)

// Setting is a hardware generation: one GPU board model plus one FPGA
// board model (the paper's Table III).
type Setting = cluster.Setting

// SettingI is AMD FirePro W9100 + Xilinx Virtex7-690t (the paper's
// primary evaluation platform).
func SettingI() Setting { return cluster.SettingI }

// SettingII is NVIDIA Tesla K20 + Xilinx Zynq UltraScale+ ZCU102.
func SettingII() Setting { return cluster.SettingII }

// SettingIII is NVIDIA Tesla K20 + Intel Arria 10 GX115.
func SettingIII() Setting { return cluster.SettingIII }

// Compile runs the offline kernel analysis on a program written in the
// annotation language (see the package example and internal/opencl).
func Compile(source string) (*Framework, error) {
	return core.CompileSource(source)
}

// Benchmark returns one of the six built-in Table II applications by
// code: "ASR", "FQT", "IR", "CS", "MF", or "WT". Compilation results are
// cached process-wide.
func Benchmark(name string) (*Framework, error) {
	return core.App(name)
}

// NewBench provisions a serving harness for a compiled application on the
// given architecture and hardware setting, under the paper's default
// 500 W node power cap.
func NewBench(fw *Framework, arch Architecture, setting Setting) (Bench, error) {
	return fw.Bench(arch, setting)
}

// Trace is a piecewise-constant datacenter utilization trace.
type Trace = trace.Trace

// SynthesizeTrace builds a Google-cluster-shaped 24-hour utilization
// trace (diurnal double peak, noise, bursts) for the given seed.
func SynthesizeTrace(seed int64) *Trace {
	return trace.Synthesize(trace.SynthOptions{Seed: seed})
}

// Workers returns the worker-pool size design-space exploration and the
// experiment harness fan out to: the last SetWorkers value, else the
// POLY_WORKERS environment variable, else runtime.NumCPU().
func Workers() int { return parallel.Workers() }

// SetWorkers fixes the worker-pool size process-wide. Results are
// deterministic at any size — parallel runs collect by index and render
// bit-identically to serial ones — so this only trades wall-clock for
// CPU. n = 1 reproduces the serial engine exactly; n <= 0 restores the
// environment/NumCPU default.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// ExperimentResult is a reproduced table or figure.
type ExperimentResult = exp.Result

// Experiments lists the available experiment IDs and titles, one per
// table/figure of the paper's evaluation.
func Experiments() [][2]string { return exp.List() }

// RunExperiment regenerates one table or figure by ID (e.g. "fig8").
func RunExperiment(id string) (ExperimentResult, error) { return exp.Run(id, nil) }
