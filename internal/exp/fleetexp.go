package exp

import (
	"fmt"
	"strings"

	"poly/internal/cluster"
	"poly/internal/fleet"
	"poly/internal/parallel"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// fleetNodes is the sharded-cluster size of the fleet experiment: the
// smallest fleet where binpack, spread, and least-util visibly diverge.
const fleetNodes = 4

// FleetRow is one policy's outcome over the diurnal replay.
type FleetRow struct {
	Policy    string
	Injected  int
	Shed      int
	P99MS     float64
	Violation float64
	AvgPowerW float64
	EnergyMJ  float64
	// Shares is each node's fraction of placements — the imbalance the
	// policy produced under the identical arrival stream.
	Shares []float64
}

// FleetResult is the fleet experiment: the 24 h diurnal trace replayed
// through an N-node sharded cluster behind the router, once per policy.
type FleetResult struct {
	id      string
	Nodes   int
	BoundMS float64
	Rows    []FleetRow
}

// ID implements Result.
func (r *FleetResult) ID() string { return r.id }

// Render implements Result.
func (r *FleetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet — 24 h diurnal replay on a %d-node Heter-Poly fleet, ASR on Setting-I (bound %.0f ms)\n",
		r.Nodes, r.BoundMS)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %6d injected  %4d shed  p99 %6.1f ms  violations %5.2f%%  avg %6.1f W  shares",
			row.Policy, row.Injected, row.Shed, row.P99MS, 100*row.Violation, row.AvgPowerW)
		for _, s := range row.Shares {
			fmt.Fprintf(&b, " %4.1f%%", 100*s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fleetReplay drives the Section VI-C trace through the multi-node
// router: the fleet serves N nodes' worth of the fig12 load, and each
// policy faces the identical arrival stream (same workload seed), so
// the rows differ only by placement decisions. tel records only the
// single-node max-throughput probe; the fleet itself gets no sink: a
// recorder keys node gauges by resource alone, so one sink cannot hold
// N shards (fleet.New rejects a shared one).
func fleetReplay(tel telemetry.Sink) (Result, error) {
	tr := Synth24h()
	polyMax, err := maxRPS(tel, "ASR", cluster.HeterPoly, cluster.SettingI, 500, 0)
	if err != nil {
		return nil, err
	}
	compress := tr.DurationMS() / traceCompressed
	pols := fleet.Policies()
	outs, err := parallel.Map(len(pols), func(i int) (fleet.Result, error) {
		b, err := benchFor("ASR", cluster.HeterPoly, cluster.SettingI)
		if err != nil {
			return fleet.Result{}, err
		}
		f, err := fleet.New(b, fleet.Options{
			Nodes:   fleetNodes,
			Policy:  pols[i],
			Runtime: runtime.Options{WarmupMS: 10_000},
		})
		if err != nil {
			return fleet.Result{}, err
		}
		w := runtime.NewWorkload(traceSeed)
		rate := func(at sim.Time) float64 {
			return fleetNodes * 0.8 * polyMax * tr.At(float64(at)*compress)
		}
		w.InjectRate(f, rate, sim.Time(traceCompressed), 5000)
		return f.Collect(), nil
	})
	if err != nil {
		return nil, err
	}
	res := &FleetResult{id: "fleet", Nodes: fleetNodes}
	for _, out := range outs {
		row := FleetRow{
			Policy:    out.Policy,
			Injected:  out.Injected,
			Shed:      out.Shed,
			P99MS:     out.P99MS,
			Violation: out.ViolationRatio(),
			AvgPowerW: out.AvgPowerW,
			EnergyMJ:  out.EnergyMJ,
		}
		placed := out.Injected - out.Shed
		for _, nr := range out.PerNode {
			share := 0.0
			if placed > 0 {
				share = float64(nr.Placements) / float64(placed)
			}
			row.Shares = append(row.Shares, share)
		}
		res.BoundMS = out.BoundMS
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
