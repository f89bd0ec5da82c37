package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"poly/internal/sim"
)

// layerReadings is what the first traced repetition reports about the
// layers: planner outcomes, simulated stage times of measured requests,
// telemetry volume, and the simulator depth samples the event replay is
// sized by.
type layerReadings struct {
	// swapsPerCold is Step-2 swaps per cold plan.
	swapsPerCold float64
	queueP50     float64
	queueP99     float64
	execMean     float64
	holdMean     float64
	transferMean float64
	spans        int
	traceEvents  int
	traceDropped int
	// sinkNS is host time spent inside telemetry calls; -1 when the run
	// could not time them (a fleet's shards call their recorders
	// directly) and the profile share stands in.
	sinkNS float64
	// pending is the simulator's queue depth at each launch; offsets
	// the sampled queue offsets of one node's boards.
	pending sim.Sample
	offsets [][]float64
}

// nodeLayers reads a node's traced repetition from its timed sink.
func nodeLayers(s *timedSink) layerReadings {
	t := s.t
	return layerReadings{
		swapsPerCold: ratio(float64(t.coldSwaps), float64(t.coldPlans)),
		queueP50:     t.queue.Percentile(50),
		queueP99:     t.queue.P99(),
		execMean:     t.exec.Mean(),
		holdMean:     ratio(t.holdSum, float64(t.stageN)),
		transferMean: ratio(t.transferSum, float64(t.stageN)),
		spans:        t.spans,
		traceEvents:  s.rec.TraceEventCount(),
		traceDropped: s.rec.TraceDropped(),
		sinkNS:       float64(t.sinkNS),
		pending:      sampleOf(t.pending),
		offsets:      s.offs.vecs,
	}
}

func sampleOf(xs []float64) sim.Sample {
	var s sim.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// observeLaunches puts a launchObserver between every shard's boards and
// the shard's recorder.
func observeLaunches(ft *fleetTarget) []*launchObserver {
	var obs []*launchObserver
	for i, n := range ft.nodes() {
		o := &launchObserver{rec: ft.Recorder(i), sim: n.Sim, offs: newOffsetSampler(n)}
		for _, g := range n.GPUs {
			g.SetObserver(o)
		}
		for _, f := range n.FPGAs {
			f.SetObserver(o)
		}
		obs = append(obs, o)
	}
	return obs
}

// fleetLayers reads a fleet's traced repetition from its per-shard
// recorders. Stage means are exact (histogram sums over counts); stage
// percentiles are interpolated in the merged histogram buckets, because
// the exact per-shard samples cannot be merged. Step-2 swaps per cold
// plan come from the spans each recorder retains (its most recent
// ones), the only per-plan record a recorder keeps.
func fleetLayers(ft *fleetTarget, obs []*launchObserver) (layerReadings, error) {
	lr := layerReadings{sinkNS: -1}
	stages := map[string]*histogram{}
	swaps, cold := 0, 0
	for i := 0; i < ft.Nodes(); i++ {
		rec := ft.Recorder(i)
		lr.spans += rec.SpanTotal()
		lr.traceEvents += rec.TraceEventCount()
		lr.traceDropped += rec.TraceDropped()
		var buf bytes.Buffer
		if err := rec.WritePrometheus(&buf); err != nil {
			return lr, err
		}
		series, err := parseExposition(buf.String())
		if err != nil {
			return lr, err
		}
		for _, s := range series {
			stage, ok := s.labels["stage"]
			if !ok || !strings.HasPrefix(s.name, "poly_stage_latency_ms_") {
				continue
			}
			h := stages[stage]
			if h == nil {
				h = &histogram{cum: map[float64]float64{}}
				stages[stage] = h
			}
			if err := h.add(s); err != nil {
				return lr, err
			}
		}
		for _, sp := range rec.Spans() {
			if !sp.CacheHit && !sp.Dropped {
				cold++
				swaps += sp.EnergySwaps
			}
		}
	}
	for _, o := range obs {
		for _, p := range o.pending {
			lr.pending.Add(p)
		}
		lr.offsets = append(lr.offsets, o.offs.vecs...)
	}
	lr.swapsPerCold = ratio(float64(swaps), float64(cold))
	if q := stages["queue"]; q != nil {
		lr.queueP50, lr.queueP99 = q.quantile(0.5), q.quantile(0.99)
	}
	lr.execMean = stages["exec"].mean()
	lr.holdMean = stages["hold"].mean()
	lr.transferMean = stages["transfer"].mean()
	return lr, nil
}

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition reads the sample lines of a Prometheus text exposition
// (comments skipped). Label values must not contain escaped quotes,
// which the recorder's labels never do.
func parseExposition(text string) ([]series, error) {
	var out []series
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		s := series{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for body != "" {
				k, rest, ok := strings.Cut(body, `="`)
				if !ok {
					return nil, fmt.Errorf("exposition line %q: bad labels", line)
				}
				val, rest, ok := strings.Cut(rest, `"`)
				if !ok {
					return nil, fmt.Errorf("exposition line %q: bad labels", line)
				}
				s.labels[k] = val
				body = strings.TrimPrefix(rest, ",")
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// histogram merges one Prometheus histogram across recorders.
type histogram struct {
	cum        map[float64]float64 // upper bound → cumulative count
	sum, count float64
}

func (h *histogram) add(s series) error {
	switch {
	case strings.HasSuffix(s.name, "_sum"):
		h.sum += s.value
	case strings.HasSuffix(s.name, "_count"):
		h.count += s.value
	case strings.HasSuffix(s.name, "_bucket"):
		le, err := strconv.ParseFloat(s.labels["le"], 64) // ParseFloat reads "+Inf"
		if err != nil {
			return fmt.Errorf("bucket bound %q: %w", s.labels["le"], err)
		}
		h.cum[le] += s.value
	}
	return nil
}

func (h *histogram) mean() float64 {
	if h == nil {
		return 0
	}
	return ratio(h.sum, h.count)
}

// quantile interpolates linearly inside the bucket holding rank q·count,
// as the registry's own Metric.Quantile does for one recorder.
func (h *histogram) quantile(q float64) float64 {
	bounds := make([]float64, 0, len(h.cum))
	for le := range h.cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for _, le := range bounds {
		c := h.cum[le]
		if c >= rank && c > prev {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = le, c
	}
	return lo
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
