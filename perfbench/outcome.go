package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"poly/internal/runtime"
	"poly/internal/sim"
)

// outcome is one repetition's simulated result: everything the
// fingerprint covers and the simulated end-to-end metrics read.
type outcome struct {
	// offered counts the arrivals the workload injected.
	offered int
	fleet   bool
	// fleetShed counts arrivals the router found no node for.
	fleetShed      int
	nodeDownEvents int
	// results and placements are per node, in shard order.
	results    []runtime.Result
	placements []int
	p50, p99   float64
	powerW     float64
	durationMS float64
	// horizonMS is the end of fault generation (0 without faults).
	horizonMS float64
	latencies []float64
	// fired counts simulator events. It is a host-side work counter
	// and stays out of the fingerprint.
	fired uint64
}

func (o *outcome) sum(f func(r *runtime.Result) int) int {
	n := 0
	for i := range o.results {
		n += f(&o.results[i])
	}
	return n
}

func (o *outcome) completed() int  { return o.sum(func(r *runtime.Result) int { return r.Completed }) }
func (o *outcome) measured() int   { return o.sum(func(r *runtime.Result) int { return r.Measured }) }
func (o *outcome) violations() int { return o.sum(func(r *runtime.Result) int { return r.Violations }) }

// lost counts offered requests that never completed: shed at a node or
// at the router, failed at planning, or dropped after failed retries.
func (o *outcome) lost() int {
	return o.fleetShed + o.sum(func(r *runtime.Result) int { return r.Shed + r.PlanErrors + r.FailedRequests })
}

// pool merges the outcomes of single-node episodes served one after
// another: counts add up, latencies pool, and power is the episodes'
// energy over their summed duration. A single outcome passes through.
func pool(eps []outcome) outcome {
	if len(eps) == 1 {
		return eps[0]
	}
	var o outcome
	var lat sim.Sample
	var energy, dur float64
	for _, e := range eps {
		o.offered += e.offered
		o.results = append(o.results, e.results...)
		o.latencies = append(o.latencies, e.latencies...)
		o.fired += e.fired
		for _, r := range e.results {
			energy += r.EnergyMJ
			dur += r.DurationMS
		}
	}
	for _, v := range o.latencies {
		lat.Add(v)
	}
	o.p50, o.p99 = lat.Percentile(50), lat.P99()
	o.powerW = energy / dur
	return o
}

// failedFrac is the share of offered requests that never completed.
func (o *outcome) failedFrac() float64 { return ratio(float64(o.lost()), float64(o.offered)) }

// qosViolFrac is the share of measured requests over the bound, with
// every lost request counted as a violation.
func (o *outcome) qosViolFrac() float64 {
	lost := o.lost()
	return ratio(float64(o.violations()+lost), float64(o.measured()+lost))
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailBeyond is how many of n samples lie beyond the p-th percentile.
func tailBeyond(n int, p float64) int { return n - int(math.Ceil(float64(n)*p/100)) }

// check enforces the accounting laws and the tail rule on one outcome.
func (o *outcome) check() error {
	placed := 0
	for i, r := range o.results {
		if got := r.Completed + r.Shed + r.PlanErrors + r.FailedRequests; r.Arrivals != got {
			return fmt.Errorf("node %d: %d arrivals != %d completed + shed + plan errors + failed", i, r.Arrivals, got)
		}
		if o.fleet {
			if o.placements[i] != r.Arrivals {
				return fmt.Errorf("node %d: %d placements != %d arrivals", i, o.placements[i], r.Arrivals)
			}
			placed += o.placements[i]
		} else {
			placed += r.Arrivals
		}
	}
	if o.offered != placed+o.fleetShed {
		return fmt.Errorf("%d injected != %d placed + %d shed", o.offered, placed, o.fleetShed)
	}
	if o.horizonMS > 0 && o.durationMS > o.horizonMS {
		return fmt.Errorf("run lasted %.0f ms, past the fault horizon at %.0f ms", o.durationMS, o.horizonMS)
	}
	if m := o.measured(); tailBeyond(m, 99) < minTail {
		return fmt.Errorf("%d measured requests leave fewer than %d beyond p99", m, minTail)
	}
	return nil
}

// fingerprint hashes every simulated number of an outcome: the latency
// samples, energy and the request, task and fault counts. Host-side
// counters (events fired, plan-cache hits) stay out, so a change that
// only makes the simulator faster keeps the fingerprint.
func (o *outcome) fingerprint() uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(o.offered))
	put(uint64(o.fleetShed))
	put(uint64(o.nodeDownEvents))
	for _, p := range o.placements {
		put(uint64(p))
	}
	for _, r := range o.results {
		for _, n := range []int{r.Arrivals, r.Completed, r.Measured, r.Violations, r.PlanErrors,
			r.Shed, r.Retries, r.TaskFailures, r.FailedRequests, r.BoardDownEvents,
			r.GPUTasks, r.FPGATasks, r.GPULaunches, r.Reconfigs, r.BatchGroups, r.BatchedRequests} {
			put(uint64(n))
		}
		putF(r.EnergyMJ)
		putF(r.DurationMS)
	}
	for _, v := range o.latencies {
		putF(v)
	}
	h.Write(buf)
	return h.Sum64()
}
