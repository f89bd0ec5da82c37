package exp

import (
	"fmt"
	"strings"

	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/parallel"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
	"poly/internal/trace"
)

// Trace replay pacing: the 24-hour Google trace is replayed
// time-compressed (24 h of shape in 20 min of simulated time) so the full
// suite stays interactive. Utilization dynamics are preserved — only the
// wall-clock axis shrinks.
const (
	traceSeed       = 5
	traceCompressed = 1200_000.0 // ms of simulated time for the 24 h shape
)

// ------------------------------------------------------------- fig11

// TraceResult is Fig. 11: the synthesized 24 h utilization trace.
type TraceResult struct {
	id    string
	Trace *trace.Trace
}

// ID implements Result.
func (r *TraceResult) ID() string { return r.id }

// Render implements Result.
func (r *TraceResult) Render() string {
	var b strings.Builder
	tr := r.Trace
	fmt.Fprintf(&b, "fig11 — synthesized Google-cluster-style 24 h utilization trace\n")
	fmt.Fprintf(&b, "  samples=%d step=%.0fs mean=%.2f peak=%.2f\n",
		len(tr.Util), tr.StepMS/1000, tr.Mean(), tr.Peak())
	// Hourly means as a rough sparkline.
	fmt.Fprintf(&b, "  hourly: ")
	perHour := len(tr.Util) / 24
	for h := 0; h < 24; h++ {
		var s float64
		for i := 0; i < perHour; i++ {
			s += tr.Util[h*perHour+i]
		}
		fmt.Fprintf(&b, "%02d:%.2f ", h, s/float64(perHour))
	}
	b.WriteByte('\n')
	return b.String()
}

func traceFigure() (Result, error) {
	tr := Synth24h()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceResult{id: "fig11", Trace: tr}, nil
}

// Synth24h returns the canonical trace used by the trace experiments.
func Synth24h() *trace.Trace {
	return trace.Synthesize(trace.SynthOptions{Seed: traceSeed})
}

// ------------------------------------------------------- fig12 + QoS

// TraceReplayResult is Fig. 12 and the Section VI-C QoS discussion:
// power over the replayed trace and violation ratios, per architecture.
type TraceReplayResult struct {
	id string
	// Power[arch] is the sampled power series over the replay.
	Power map[string]sim.TimeSeries
	// AvgPowerW, EnergyMJ, ViolationRatio, P99 per architecture.
	AvgPowerW map[string]float64
	EnergyMJ  map[string]float64
	Violation map[string]float64
	P99       map[string]float64
	BoundMS   float64
}

// ID implements Result.
func (r *TraceReplayResult) ID() string { return r.id }

// Render implements Result.
func (r *TraceReplayResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — 24 h trace replay (time-compressed), ASR on Setting-I\n", r.id)
	for _, k := range sortedKeys(r.AvgPowerW) {
		fmt.Fprintf(&b, "  %-10s avg power %6.1f W  energy %8.0f J  p99 %6.1f ms  violations %5.2f%%\n",
			k, r.AvgPowerW[k], r.EnergyMJ[k]/1000, r.P99[k], 100*r.Violation[k])
	}
	if p, g, f := r.AvgPowerW["Heter-Poly"], r.AvgPowerW["Homo-GPU"], r.AvgPowerW["Homo-FPGA"]; p > 0 {
		fmt.Fprintf(&b, "  Poly power saving: %.0f%% vs Homo-GPU, %.0f%% vs Homo-FPGA\n",
			100*(1-p/g), 100*(1-p/f))
	}
	return b.String()
}

// PowerSaving returns Poly's average-power saving vs an architecture.
func (r *TraceReplayResult) PowerSaving(over string) float64 {
	if r.AvgPowerW[over] == 0 {
		return 0
	}
	return 1 - r.AvgPowerW["Heter-Poly"]/r.AvgPowerW[over]
}

func traceReplay(tel telemetry.Sink) (Result, error) {
	tr := Synth24h()
	res := &TraceReplayResult{
		id:        "fig12",
		Power:     map[string]sim.TimeSeries{},
		AvgPowerW: map[string]float64{},
		EnergyMJ:  map[string]float64{},
		Violation: map[string]float64{},
		P99:       map[string]float64{},
	}
	// Load scale: the trace's utilization is a fraction of each system's
	// own maximum, mirroring the paper's "directly use the same
	// utilization value" for all three platforms — here scaled by the
	// Poly maximum so all three serve the identical request stream.
	polyMax, err := maxRPS(tel, "ASR", cluster.HeterPoly, cluster.SettingI, 500, 0)
	if err != nil {
		return nil, err
	}
	compress := tr.DurationMS() / traceCompressed
	// The three architecture replays are independent (each owns its
	// session, simulator, and workload RNG seeded identically): fan them
	// out and fill the keyed maps from the ordered results.
	archs := Archs()
	type replay struct {
		out   runtime.Result
		bound float64
	}
	outs, err := parallel.Map(len(archs), func(i int) (replay, error) {
		fw, err := core.App("ASR")
		if err != nil {
			return replay{}, err
		}
		b, err := fw.Bench(archs[i], cluster.SettingI)
		if err != nil {
			return replay{}, err
		}
		sv, _, err := b.NewSession(runtime.Options{WarmupMS: 10_000, Telemetry: tel})
		if err != nil {
			return replay{}, err
		}
		w := runtime.NewWorkload(traceSeed)
		rate := func(at sim.Time) float64 {
			return 0.8 * polyMax * tr.At(float64(at)*compress)
		}
		w.InjectRate(sv, rate, sim.Time(traceCompressed), 5000)
		return replay{out: sv.Collect(), bound: fw.Program().LatencyBoundMS}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, arch := range archs {
		out := outs[i].out
		res.Power[arch.String()] = out.Power
		res.AvgPowerW[arch.String()] = out.AvgPowerW
		res.EnergyMJ[arch.String()] = out.EnergyMJ
		res.Violation[arch.String()] = out.ViolationRatio()
		res.P99[arch.String()] = out.P99MS
		res.BoundMS = outs[i].bound
	}
	return res, nil
}

// qosViolations reuses the replay and reports the QoS side (Section VI-C).
func qosViolations(tel telemetry.Sink) (Result, error) {
	r, err := traceReplay(tel)
	if err != nil {
		return nil, err
	}
	tr := r.(*TraceReplayResult)
	return &QoSResult{id: "qos", Violation: tr.Violation, P99: tr.P99, BoundMS: tr.BoundMS}, nil
}

// QoSResult is the violation-ratio table of Section VI-C.
type QoSResult struct {
	id        string
	Violation map[string]float64
	P99       map[string]float64
	BoundMS   float64
}

// ID implements Result.
func (r *QoSResult) ID() string { return r.id }

// Render implements Result.
func (r *QoSResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qos — violation ratios over the trace replay (bound %.0f ms)\n", r.BoundMS)
	for _, k := range sortedKeys(r.Violation) {
		fmt.Fprintf(&b, "  %-10s p99 %6.1f ms  violations %5.2f%%\n", k, r.P99[k], 100*r.Violation[k])
	}
	return b.String()
}
