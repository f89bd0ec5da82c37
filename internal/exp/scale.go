package exp

import (
	"fmt"
	"math"
	"strings"

	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/device"
	"poly/internal/metrics"
	"poly/internal/parallel"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// ------------------------------------------------------------- fig13

// ScalabilityResult is Fig. 13: maximum ASR throughput as the GPU/FPGA
// power split varies from 0 % (Homo-FPGA) to 100 % (Homo-GPU) under a
// 1000 W cap, for each hardware setting.
type ScalabilityResult struct {
	id string
	// RPS[setting][i] is the max throughput at Splits[i] GPU share.
	Splits []float64
	RPS    map[string][]float64
}

// ID implements Result.
func (r *ScalabilityResult) ID() string { return r.id }

// Render implements Result.
func (r *ScalabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig13 — ASR max throughput vs GPU power share (1000 W cap)\n")
	for _, k := range sortedKeys(r.RPS) {
		fmt.Fprintf(&b, "  %-12s:", k)
		for i, s := range r.Splits {
			fmt.Fprintf(&b, " %3.0f%%→%6.1f", 100*s, r.RPS[k][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BestSplit returns the split with the highest throughput for a setting.
func (r *ScalabilityResult) BestSplit(setting string) (share, rps float64) {
	for i, v := range r.RPS[setting] {
		if v > rps {
			rps, share = v, r.Splits[i]
		}
	}
	return share, rps
}

func archScalability(tel telemetry.Sink) (Result, error) {
	res := &ScalabilityResult{
		id:     "fig13",
		Splits: []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		RPS:    map[string][]float64{},
	}
	// Every (setting, split) point is an independent maxRPS search — the
	// heavyweight sweep of the suite. Fan the 18-cell grid out and
	// assemble rows by index.
	settings := cluster.Settings()
	grid, err := parallel.Map(len(settings)*len(res.Splits), func(idx int) (float64, error) {
		setting := settings[idx/len(res.Splits)]
		split := res.Splits[idx%len(res.Splits)]
		switch split {
		case 0:
			return maxRPS(tel, "ASR", cluster.HomoFPGA, setting, 1000, 0)
		case 1.0:
			return maxRPS(tel, "ASR", cluster.HomoGPU, setting, 1000, 0)
		default:
			return maxRPS(tel, "ASR", cluster.HeterPoly, setting, 1000, split)
		}
	})
	if err != nil {
		return nil, err
	}
	for i, setting := range settings {
		res.RPS[setting.Name] = grid[i*len(res.Splits) : (i+1)*len(res.Splits)]
	}
	return res, nil
}

// ------------------------------------------------------------- fig14

// CostEfficiencyResult is Fig. 14: max throughput per monthly TCO dollar,
// per architecture and setting.
type CostEfficiencyResult struct {
	id string
	// RPSPerUSD[setting][arch].
	RPSPerUSD map[string]map[string]float64
	// TCOUSD and MaxRPS hold the components for inspection.
	TCOUSD map[string]map[string]float64
	MaxRPS map[string]map[string]float64
}

// ID implements Result.
func (r *CostEfficiencyResult) ID() string { return r.id }

// Render implements Result.
func (r *CostEfficiencyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig14 — cost efficiency (max RPS per monthly TCO dollar)\n")
	for _, setting := range sortedKeys(r.RPSPerUSD) {
		fmt.Fprintf(&b, "  %s:\n", setting)
		for _, arch := range sortedKeys(r.RPSPerUSD[setting]) {
			fmt.Fprintf(&b, "    %-10s maxRPS %6.1f  TCO $%7.0f/mo  → %6.4f RPS/$\n",
				arch, r.MaxRPS[setting][arch], r.TCOUSD[setting][arch], r.RPSPerUSD[setting][arch])
		}
	}
	return b.String()
}

func costEfficiency(tel telemetry.Sink) (Result, error) {
	res := &CostEfficiencyResult{
		id:        "fig14",
		RPSPerUSD: map[string]map[string]float64{},
		TCOUSD:    map[string]map[string]float64{},
		MaxRPS:    map[string]map[string]float64{},
	}
	// One cell per (setting, architecture): maxRPS search, half-load power
	// probe, provisioning, and TCO math are all independent across cells.
	settings, archs := cluster.Settings(), Archs()
	type cell struct {
		ce, tco, m float64
	}
	grid, err := parallel.Map(len(settings)*len(archs), func(idx int) (cell, error) {
		setting, arch := settings[idx/len(archs)], archs[idx%len(archs)]
		m, err := maxRPS(tel, "ASR", arch, setting, 500, 0)
		if err != nil {
			return cell{}, err
		}
		// Average power at 50 % load drives the energy bill.
		b, err := benchFor("ASR", arch, setting)
		if err != nil {
			return cell{}, err
		}
		half, err := probe(b, tel, 0.5*m)
		if err != nil {
			return cell{}, err
		}
		plan, err := cluster.Provision(cluster.Config{Arch: arch, Setting: setting, PowerCapW: 500})
		if err != nil {
			return cell{}, err
		}
		node := cluster.Build(sim.New(), plan)
		tcoParams := metrics.DefaultTCO(node.CapexUSD(), 500, half.AvgPowerW)
		ce, err := metrics.CostEfficiency(m, tcoParams)
		if err != nil {
			return cell{}, err
		}
		tco, err := tcoParams.MonthlyUSD()
		if err != nil {
			return cell{}, err
		}
		return cell{ce: ce, tco: tco, m: m}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, setting := range settings {
		res.RPSPerUSD[setting.Name] = map[string]float64{}
		res.TCOUSD[setting.Name] = map[string]float64{}
		res.MaxRPS[setting.Name] = map[string]float64{}
		for j, arch := range archs {
			c := grid[i*len(archs)+j]
			res.RPSPerUSD[setting.Name][arch.String()] = c.ce
			res.TCOUSD[setting.Name][arch.String()] = c.tco
			res.MaxRPS[setting.Name][arch.String()] = c.m
		}
	}
	return res, nil
}

// ----------------------------------------------------------- accuracy

// AccuracyResult is the Section VI-C model-validation claim: the
// analytical models' latency predictions against the event-level device
// simulator, per kernel and platform.
type AccuracyResult struct {
	id   string
	Rows []AccuracyRow
	// MeanAbsErr and MaxAbsErr summarize across rows.
	MeanAbsErr, MaxAbsErr float64
}

// AccuracyRow is one (kernel, platform) comparison.
type AccuracyRow struct {
	App, Kernel string
	Platform    string
	ModelMS     float64
	MeasuredMS  float64
	AbsErr      float64
}

// ID implements Result.
func (r *AccuracyResult) ID() string { return r.id }

// Render implements Result.
func (r *AccuracyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy — analytical model vs device simulator (single kernel runs)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-4s %-16s %-4s model %8.2f ms  measured %8.2f ms  err %5.2f%%\n",
			row.App, row.Kernel, row.Platform, row.ModelMS, row.MeasuredMS, 100*row.AbsErr)
	}
	fmt.Fprintf(&b, "  mean abs err %.2f%%, max %.2f%% (paper: within 6%%)\n",
		100*r.MeanAbsErr, 100*r.MaxAbsErr)
	return b.String()
}

// doneProbe records when the accuracy probe's single task completes.
type doneProbe struct{ doneAt sim.Time }

func (*doneProbe) TaskStarted(*device.Task, sim.Time)     {}
func (p *doneProbe) TaskDone(_ *device.Task, at sim.Time) { p.doneAt = at }
func (*doneProbe) TaskFailed(*device.Task, sim.Time)      {}

// modelAccuracy executes each kernel's fastest implementation once on a
// fresh board and compares the measured span with the model's prediction.
// Apps fan out across the worker pool (each probe owns its simulator);
// rows are merged in Table II order before the summary statistics.
func modelAccuracy() (Result, error) {
	res := &AccuracyResult{id: "accuracy"}
	names := apps.Names()
	perApp, err := parallel.Map(len(names), func(i int) ([]AccuracyRow, error) {
		name := names[i]
		fw, err := core.App(name)
		if err != nil {
			return nil, err
		}
		ks, err := fw.Explore(cluster.SettingI)
		if err != nil {
			return nil, err
		}
		var rows []AccuracyRow
		for _, k := range fw.Program().Kernels() {
			for _, class := range []device.Class{device.GPU, device.FPGA} {
				im := ks.Space(k.Name, class).MinLatency()
				s := sim.New()
				var probe doneProbe
				task := &device.Task{
					Kernel: k.Name, ImplID: im.Kernel + "/probe",
					LatencyMS: im.LatencyMS, IntervalMS: im.IntervalMS,
					Batch: 1, PowerW: im.PowerW, Owner: &probe,
				}
				var started sim.Time
				if class == device.GPU {
					device.NewGPU(s, "gpu0", cluster.SettingI.GPU).Submit(task)
				} else {
					f := device.NewFPGA(s, "fpga0", cluster.SettingI.FPGA)
					f.Preload(task.ImplID) // exclude the one-time bitstream load
					s.Run()
					started = s.Now()
					f.Submit(task)
				}
				s.Run()
				measured := float64(probe.doneAt - started)
				rows = append(rows, AccuracyRow{
					App: name, Kernel: k.Name, Platform: class.String(),
					ModelMS: im.LatencyMS, MeasuredMS: measured,
					AbsErr: math.Abs(measured-im.LatencyMS) / im.LatencyMS,
				})
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range perApp {
		for _, row := range rows {
			res.Rows = append(res.Rows, row)
			res.MeanAbsErr += row.AbsErr
			if row.AbsErr > res.MaxAbsErr {
				res.MaxAbsErr = row.AbsErr
			}
		}
	}
	if len(res.Rows) > 0 {
		res.MeanAbsErr /= float64(len(res.Rows))
	}
	return res, nil
}
