// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Section VI plus the Fig. 1 motivation
// study), each returning typed rows/series and a text rendering that
// mirrors what the paper reports.
//
// Experiments are deterministic for a fixed seed and sized to run in
// seconds on a laptop; EXPERIMENTS.md records the paper-vs-measured
// comparison produced by cmd/polybench.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"poly/internal/cluster"
	"poly/internal/telemetry"
)

// Series is one named curve (e.g. an architecture's tail latency vs load).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Archs returns the three system architectures in paper order.
func Archs() []cluster.Architecture {
	return []cluster.Architecture{cluster.HomoGPU, cluster.HomoFPGA, cluster.HeterPoly}
}

// Result is a runnable experiment's outcome.
type Result interface {
	// ID is the figure/table identifier, e.g. "fig1a".
	ID() string
	// Render returns the text report.
	Render() string
}

// Runner executes one experiment. tel, when non-nil, is attached to
// every single-node serving session the experiment builds — how
// polybench -trace-out/-metrics-out record an experiment's sessions. A
// sink must run with a serial worker pool: a recorder records one
// timeline, and parallel sweeps would interleave theirs in it.
type Runner func(tel telemetry.Sink) (Result, error)

// withoutSink adapts an experiment that builds no serving session.
func withoutSink(run func() (Result, error)) Runner {
	return func(telemetry.Sink) (Result, error) { return run() }
}

// registry maps experiment IDs to runners, in registration order.
var registry []struct {
	id     string
	title  string
	runner Runner
}

func register(id, title string, r Runner) {
	registry = append(registry, struct {
		id     string
		title  string
		runner Runner
	}{id, title, r})
}

func init() {
	// Registration follows the paper's presentation order.
	register("fig1a", "ASR tail latency vs load (motivation)", func(tel telemetry.Sink) (Result, error) {
		return tailLatency(tel, "fig1a", "ASR")
	})
	register("fig1b", "ASR energy proportionality (motivation)", func(tel telemetry.Sink) (Result, error) {
		return powerScaling(tel, "fig1b", []string{"ASR"})
	})
	register("fig1c", "LSTM kernel Pareto frontiers", withoutSink(lstmPareto))
	register("fig1d", "efficiency vs utilization", efficiencyVsUtilization)
	register("fig1ef", "ASR per-kernel breakdown", withoutSink(kernelBreakdown))
	register("fig6", "ASR two-step schedule", withoutSink(scheduleASR))
	register("table2", "per-kernel design spaces", withoutSink(designSpaces))
	register("fig7", "tail latency, six apps", tailLatencyAll)
	register("fig8", "maximum QoS throughput", maxThroughput)
	register("fig8batch", "admission batching throughput sweep", batchingSweep)
	register("fig9", "power scaling, three apps", func(tel telemetry.Sink) (Result, error) {
		return powerScaling(tel, "fig9", []string{"ASR", "FQT", "IR"})
	})
	register("fig10", "energy proportionality, six apps", func(tel telemetry.Sink) (Result, error) {
		return powerScaling(tel, "fig10", appNames())
	})
	register("fig11", "24 h utilization trace", withoutSink(traceFigure))
	register("fig12", "trace replay power savings", traceReplay)
	register("qos", "trace replay QoS violations", qosViolations)
	register("fleet", "multi-node fleet diurnal replay, per routing policy", fleetReplay)
	register("accuracy", "analytical model vs device simulator", withoutSink(modelAccuracy))
	register("fig13", "architecture scalability (power splits)", archScalability)
	register("fig14", "cost efficiency (TCO)", costEfficiency)
}

// List returns the registered experiment IDs and titles, in order.
func List() [][2]string {
	out := make([][2]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, [2]string{e.id, e.title})
	}
	return out
}

// Run executes one experiment by ID, recording its single-node serving
// sessions into tel when it is non-nil (see Runner).
func Run(id string, tel telemetry.Sink) (Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.runner(tel)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (try one of %s)", id, strings.Join(ids(), ", "))
}

func ids() []string {
	var out []string
	for _, e := range registry {
		out = append(out, e.id)
	}
	return out
}

// RunAll executes every experiment in registration order, stopping on the
// first error, with tel as in Run.
func RunAll(tel telemetry.Sink) ([]Result, error) {
	var out []Result
	for _, e := range registry {
		r, err := e.runner(tel)
		if err != nil {
			return out, fmt.Errorf("exp: %s: %w", e.id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// geomean returns the geometric mean of positive values (0 if any value
// is non-positive).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
