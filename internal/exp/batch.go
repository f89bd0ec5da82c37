package exp

import (
	"fmt"
	"strings"

	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/parallel"
	"poly/internal/runtime"
	"poly/internal/telemetry"
)

// expBatchWaitMS is the staging max-wait the batching sweep enables —
// small against every app's latency bound, large against the sub-ms
// arrival gaps near each app's saturation point.
const expBatchWaitMS = 4

// BatchingRow is one application's batching-on/off comparison on
// Heter-Poly Setting-I: the QoS-compliant maximum with and without the
// admission batcher, plus operating-point launch and tail statistics
// measured at the unbatched maximum (the fig8 high-load point).
type BatchingRow struct {
	App string
	// MaxRPSOff/On are the fig8 search with the batcher off and on.
	MaxRPSOff, MaxRPSOn float64
	// LaunchPerReqOff/On is physical GPU launches per completed request
	// at the operating point; AmortOff/On is GPU kernel executions per
	// launch (the amortization factor batching exists to raise).
	LaunchPerReqOff, LaunchPerReqOn float64
	AmortOff, AmortOn               float64
	// P99Off/On and ViolOff/On are the operating-point tail.
	P99Off, P99On   float64
	ViolOff, ViolOn float64
	// Group statistics of the batched operating-point run.
	BatchGroups, MaxBatchSize int
	MeanHoldMS                float64
}

// BatchingResult is the fig8batch experiment: Fig. 8's throughput search
// repeated with the admission-side batcher on, demonstrating that
// cross-request launch sharing buys QoS-compliant throughput without
// spending the tail.
type BatchingResult struct {
	id   string
	Wait float64
	Rows []BatchingRow
}

// ID implements Result.
func (r *BatchingResult) ID() string { return r.id }

// MeanThroughputGain is the mean MaxRPSOn/MaxRPSOff ratio minus one.
func (r *BatchingResult) MeanThroughputGain() float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.MaxRPSOff > 0 {
			sum += row.MaxRPSOn / row.MaxRPSOff
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum/float64(n) - 1
}

// Render implements Result.
func (r *BatchingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — admission batching on Heter-Poly (max wait %.0f ms)\n", r.id, r.Wait)
	fmt.Fprintf(&b, "  %-5s %9s %9s %7s | %11s %11s %9s %9s | %6s %4s %7s\n",
		"app", "maxRPS", "maxRPS+b", "gain", "launch/req", "launch/req+b", "amort", "amort+b", "groups", "max", "hold")
	for _, row := range r.Rows {
		gain := 0.0
		if row.MaxRPSOff > 0 {
			gain = row.MaxRPSOn/row.MaxRPSOff - 1
		}
		fmt.Fprintf(&b, "  %-5s %9.1f %9.1f %+6.1f%% | %11.3f %11.3f %9.2f %9.2f | %6d %4d %5.2fms\n",
			row.App, row.MaxRPSOff, row.MaxRPSOn, 100*gain,
			row.LaunchPerReqOff, row.LaunchPerReqOn, row.AmortOff, row.AmortOn,
			row.BatchGroups, row.MaxBatchSize, row.MeanHoldMS)
		fmt.Fprintf(&b, "  %-5s   p99 %6.1f→%6.1f ms, violations %5.3f→%5.3f at %.1f RPS\n",
			"", row.P99Off, row.P99On, row.ViolOff, row.ViolOn, row.MaxRPSOff)
	}
	fmt.Fprintf(&b, "  mean QoS-throughput gain with batching: %+.1f%%\n", 100*r.MeanThroughputGain())
	return b.String()
}

// maxRPSBatched is maxRPS for Heter-Poly with the admission batcher on,
// memoized under its own key (the batch wait is part of the signature).
func maxRPSBatched(tel telemetry.Sink, app string, waitMS float64) (float64, error) {
	key := fmt.Sprintf("%s|Heter-Poly|%s|500|0|batchwait=%v", app, cluster.SettingI.Name, waitMS)
	return maxRPSMemo.Do(key, func() (float64, error) {
		b, err := benchFor(app, cluster.HeterPoly, cluster.SettingI)
		if err != nil {
			return 0, err
		}
		return b.MaxThroughputRPSWith(runtime.Options{BatchWaitMS: waitMS, Telemetry: tel},
			searchCapRPS, probeDurationMS, probeSeed)
	})
}

// batchingSweep runs fig8batch: per app, the QoS-throughput search with
// batching off (shared with fig8 via the memo) and on, plus one
// operating-point pair of serving runs at the unbatched maximum to
// measure launch amortization and the tail with everything else equal.
func batchingSweep(tel telemetry.Sink) (Result, error) {
	names := apps.Names()
	rows, err := parallel.Map(len(names), func(i int) (BatchingRow, error) {
		app := names[i]
		row := BatchingRow{App: app}
		off, err := maxRPS(tel, app, cluster.HeterPoly, cluster.SettingI, 500, 0)
		if err != nil {
			return row, err
		}
		on, err := maxRPSBatched(tel, app, expBatchWaitMS)
		if err != nil {
			return row, err
		}
		row.MaxRPSOff, row.MaxRPSOn = off, on
		if off <= 0 {
			return row, nil
		}
		b, err := benchFor(app, cluster.HeterPoly, cluster.SettingI)
		if err != nil {
			return row, err
		}
		rOff, err := probe(b, tel, off)
		if err != nil {
			return row, err
		}
		rOn, err := b.ServeConstantLoadWith(runtime.Options{BatchWaitMS: expBatchWaitMS, Telemetry: tel},
			off, probeDurationMS, probeSeed)
		if err != nil {
			return row, err
		}
		if rOff.Completed > 0 {
			row.LaunchPerReqOff = float64(rOff.GPULaunches) / float64(rOff.Completed)
		}
		if rOn.Completed > 0 {
			row.LaunchPerReqOn = float64(rOn.GPULaunches) / float64(rOn.Completed)
		}
		row.AmortOff, row.AmortOn = rOff.LaunchAmortization(), rOn.LaunchAmortization()
		row.P99Off, row.P99On = rOff.P99MS, rOn.P99MS
		row.ViolOff, row.ViolOn = rOff.ViolationRatio(), rOn.ViolationRatio()
		row.BatchGroups, row.MaxBatchSize = rOn.BatchGroups, rOn.MaxBatchSize
		row.MeanHoldMS = rOn.MeanHoldMS
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &BatchingResult{id: "fig8batch", Wait: expBatchWaitMS, Rows: rows}, nil
}
