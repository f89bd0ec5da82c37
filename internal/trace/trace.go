// Package trace provides the datacenter load traces of Section VI-C.
//
// The paper replays a 24-hour server-utilization trace from the public
// Google cluster data set (12.5k servers, May 2011) [56]. That data is
// not shipped here, so the package synthesizes traces with the published
// shape — a diurnal pattern with two daytime peaks, short bursts, and
// noise — and also loads externally supplied traces in the cluster-data
// CSV convention (timestamp_seconds,utilization).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"poly/internal/sim"
)

// Trace is a piecewise-constant utilization series: Util[i] holds during
// [i·StepMS, (i+1)·StepMS). Utilization is a fraction of the serving
// system's maximum QoS-compliant throughput.
type Trace struct {
	StepMS float64
	Util   []float64
}

// DurationMS returns the trace's total span.
func (t *Trace) DurationMS() float64 { return float64(len(t.Util)) * t.StepMS }

// At returns the utilization at time ms (clamped to the trace bounds).
func (t *Trace) At(ms float64) float64 {
	if len(t.Util) == 0 {
		return 0
	}
	i := int(ms / t.StepMS)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Util) {
		i = len(t.Util) - 1
	}
	return t.Util[i]
}

// Rate returns a sim-time rate function scaled to maxRPS, suitable for
// runtime.Workload.InjectRate.
func (t *Trace) Rate(maxRPS float64) func(sim.Time) float64 {
	return func(at sim.Time) float64 { return maxRPS * t.At(float64(at)) }
}

// Mean returns the average utilization.
func (t *Trace) Mean() float64 {
	if len(t.Util) == 0 {
		return 0
	}
	var s float64
	for _, u := range t.Util {
		s += u
	}
	return s / float64(len(t.Util))
}

// Peak returns the maximum utilization.
func (t *Trace) Peak() float64 {
	var m float64
	for _, u := range t.Util {
		if u > m {
			m = u
		}
	}
	return m
}

// Validate checks that the step is positive and finite and that every
// sample is a fraction in [0, 1]. The comparisons are written so that NaN
// fails them.
func (t *Trace) Validate() error {
	if !(t.StepMS > 0) || math.IsInf(t.StepMS, 1) {
		return fmt.Errorf("trace: step %v is not positive and finite", t.StepMS)
	}
	if len(t.Util) == 0 {
		return fmt.Errorf("trace: empty")
	}
	for i, u := range t.Util {
		if !(u >= 0 && u <= 1) {
			return fmt.Errorf("trace: sample %d = %v outside [0,1]", i, u)
		}
	}
	return nil
}

// SynthOptions shapes a synthetic diurnal trace.
type SynthOptions struct {
	// Hours is the trace length (24 if zero).
	Hours float64
	// StepMS is the sampling interval (60 000 — one minute — if zero).
	StepMS float64
	// Base is the overnight utilization floor (0.15 if zero).
	Base float64
	// Peak is the daytime ceiling (0.85 if zero).
	Peak float64
	// Burstiness adds load spikes: expected spikes per hour (2 if zero,
	// negative disables).
	Burstiness float64
	// Seed drives the noise and burst placement.
	Seed int64
}

// Synthesize builds a Google-cluster-shaped utilization trace: a diurnal
// base with morning and evening peaks, multiplicative noise, and
// short bursts (the Fig. 11 shape).
func Synthesize(o SynthOptions) *Trace {
	if o.Hours == 0 {
		o.Hours = 24
	}
	if o.StepMS == 0 {
		o.StepMS = 60_000
	}
	if o.Base == 0 {
		o.Base = 0.15
	}
	if o.Peak == 0 {
		o.Peak = 0.85
	}
	if o.Burstiness == 0 {
		o.Burstiness = 2
	}
	rng := sim.NewRNG(o.Seed)
	n := int(o.Hours * 3600_000 / o.StepMS)
	if n < 1 {
		n = 1
	}
	tr := &Trace{StepMS: o.StepMS, Util: make([]float64, n)}
	stepsPerHour := 3600_000 / o.StepMS
	for i := range tr.Util {
		hour := math.Mod(float64(i)/stepsPerHour, 24)
		// Two daytime humps (≈11:00 and ≈20:00) on a diurnal base.
		diurnal := 0.55*hump(hour, 11, 3.5) + 0.8*hump(hour, 20, 3.0)
		u := o.Base + (o.Peak-o.Base)*math.Min(1, diurnal)
		u *= 1 + 0.08*rng.Normal(0, 1) // measurement noise
		tr.Util[i] = clamp01(u)
	}
	// Bursts: short plateaus of elevated load.
	if o.Burstiness > 0 {
		expected := o.Burstiness * o.Hours
		for b := 0; b < int(expected); b++ {
			at := rng.Intn(n)
			width := 1 + rng.Intn(int(math.Max(1, stepsPerHour/6)))
			level := rng.Uniform(0.7, 1.0)
			for i := at; i < at+width && i < n; i++ {
				if level > tr.Util[i] {
					tr.Util[i] = level
				}
			}
		}
	}
	return tr
}

// hump is a smooth bell around centre with the given width (hours),
// wrapping across midnight.
func hump(hour, centre, width float64) float64 {
	d := math.Abs(hour - centre)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Load reads a trace in the Google cluster-data CSV convention:
// `timestamp_seconds,utilization` per line, `#` comments allowed.
// Timestamps must be finite, ascending and equally spaced; utilizations
// must lie in [0, 1].
func Load(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var times, utils []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want `timestamp,utilization`", line)
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %v", line, err)
		}
		u, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad utilization: %v", line, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; a NaN timestamp would pass
		// the spacing check below. Validate rejects a non-finite
		// utilization or step.
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			return nil, fmt.Errorf("trace: line %d: non-finite timestamp", line)
		}
		times = append(times, ts)
		utils = append(utils, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("trace: need at least two samples")
	}
	step := times[1] - times[0]
	if step <= 0 {
		return nil, fmt.Errorf("trace: non-ascending timestamps")
	}
	for i := 2; i < len(times); i++ {
		if math.Abs((times[i]-times[i-1])-step) > 1e-9*step {
			return nil, fmt.Errorf("trace: uneven sampling at line %d", i+1)
		}
	}
	tr := &Trace{StepMS: step * 1000, Util: utils}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
