package runtime

import (
	"fmt"
	"math"

	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/opencl"
	"poly/internal/sched"
	"poly/internal/sim"
)

// Workload injects an arrival process into a server.
type Workload struct {
	rng *sim.RNG
}

// ArrivalTarget receives scheduled arrivals: a *Server directly, or a
// fleet router that places each arrival on a shard at fire time. Both
// consume the identical RNG draw sequence for a given workload, which is
// what makes the router's 1-node bit-transparency gate meaningful.
type ArrivalTarget interface {
	Inject(at sim.Time)
}

// NewWorkload builds a deterministic workload source.
func NewWorkload(seed int64) *Workload {
	return &Workload{rng: sim.NewRNG(seed)}
}

// InjectPoisson injects an open-loop Poisson arrival process at `rps`
// requests/second from `start` for `durationMS`, returning the number of
// arrivals. Poisson arrivals are the standard open-loop model for
// interactive services (Treadmill [38]).
func (w *Workload) InjectPoisson(tgt ArrivalTarget, rps float64, start, durationMS sim.Time) int {
	meanGapMS := 1000 / rps
	if durationMS <= 0 || !advances(start+durationMS, sim.Time(meanGapMS)) {
		return 0
	}
	n := 0
	for t := start + sim.Time(w.rng.Exp(meanGapMS)); t < start+durationMS; t += sim.Time(w.rng.Exp(meanGapMS)) {
		tgt.Inject(t)
		n++
	}
	return n
}

// InjectConstant injects arrivals at a fixed interval (the motivation
// study's "requests ... sent in a constant interval").
func (w *Workload) InjectConstant(tgt ArrivalTarget, rps float64, start, durationMS sim.Time) int {
	gap := sim.Time(1000 / rps)
	if durationMS <= 0 || !advances(start+durationMS, gap) {
		return 0
	}
	n := 0
	for t := start + gap; t < start+durationMS; t += gap {
		tgt.Inject(t)
		n++
	}
	return n
}

// InjectRate injects a Poisson process whose rate is piecewise constant:
// rate(t) gives RPS for each stepMS-wide interval — the trace-replay
// driver of Section VI-C.
func (w *Workload) InjectRate(tgt ArrivalTarget, rate func(t sim.Time) float64, durationMS, stepMS sim.Time) int {
	if !(stepMS > 0) || durationMS <= 0 || durationMS+stepMS == durationMS {
		return 0
	}
	n := 0
	for t := sim.Time(0); t < durationMS; t += stepMS {
		n += w.InjectPoisson(tgt, rate(t), t, min(stepMS, durationMS-t))
	}
	return n
}

// advances reports whether an injection loop stepping by gap (a mean gap
// for Poisson arrivals) reaches a window ending at end. A NaN, infinite or
// non-positive rate gives a gap that is NaN, 0, ±Inf or negative; a rate
// so high that end+gap == end gives a gap below the clock's resolution.
// Either way the loop would inject forever without moving the clock.
func advances(end, gap sim.Time) bool {
	return gap > 0 && !math.IsInf(float64(gap), 1) && end+gap != end
}

// Bench is a prebuilt (node architecture, planner) pairing for one
// application — everything needed to serve load and measure the outcome.
type Bench struct {
	Arch    cluster.Architecture
	Setting cluster.Setting
	Prog    *opencl.Program
	Spaces  *dse.KernelSpaces
	// PowerCapW defaults to the paper's 500 W.
	PowerCapW float64
	// GPUShare sets the Heter-Poly split (0 → 50 %).
	GPUShare float64
}

// NewSession provisions a fresh node + server for one run. Each session
// owns its own simulator, so repeated measurements are independent.
func (b Bench) NewSession(opts Options) (*Server, *cluster.Node, error) {
	return b.NewShardSession(sim.New(), "", opts)
}

// NewShardSession provisions one fleet shard: a node whose boards carry
// the given name prefix, built on the given simulator, plus the server
// that drives it. NewSession is the single-node case (fresh simulator,
// empty prefix) — so a 1-node fleet and a direct session assemble the
// exact same node, planner, and server.
func (b Bench) NewShardSession(s *sim.Simulator, prefix string, opts Options) (*Server, *cluster.Node, error) {
	cap := b.PowerCapW
	if cap == 0 {
		cap = 500
	}
	plan, err := cluster.Provision(cluster.Config{
		Arch: b.Arch, Setting: b.Setting, PowerCapW: cap, GPUShare: b.GPUShare,
	})
	if err != nil {
		return nil, nil, err
	}
	node := cluster.BuildNamed(s, plan, prefix)

	var planner Planner
	switch b.Arch {
	case cluster.HeterPoly:
		planner, err = sched.New(b.Prog, b.Spaces)
	case cluster.HomoGPU:
		planner, err = sched.NewStatic(b.Prog, b.Spaces, device.GPU, sched.StaticAuto)
	case cluster.HomoFPGA:
		planner, err = sched.NewStatic(b.Prog, b.Spaces, device.FPGA, sched.StaticAuto)
	default:
		err = fmt.Errorf("runtime: unknown architecture %v", b.Arch)
	}
	if err != nil {
		return nil, nil, err
	}
	// Heter-Poly runs the full monitor/optimizer loop; the baselines are
	// static (Section VI-C).
	opts.Governor = b.Arch == cluster.HeterPoly
	sv, err := NewServer(node, b.Prog, planner, opts)
	if err != nil {
		return nil, nil, err
	}
	return sv, node, nil
}

// ServeConstantLoad runs a Poisson open-loop load at `rps` for
// durationMS and returns the summary. The first 20 % of the run (capped
// at 5 s) is warmup: bitstream loads and cold queues are excluded from
// the QoS statistics, as a load tester would.
func (b Bench) ServeConstantLoad(rps float64, durationMS float64, seed int64) (Result, error) {
	return b.ServeConstantLoadWith(Options{}, rps, durationMS, seed)
}

// ServeConstantLoadWith is ServeConstantLoad with explicit session
// options — how cmd/polysim attaches a telemetry sink or overrides the
// bound. A zero WarmupMS gets the same 20 %-capped-at-5 s default.
func (b Bench) ServeConstantLoadWith(opts Options, rps float64, durationMS float64, seed int64) (Result, error) {
	if opts.WarmupMS == 0 {
		warm := 0.2 * durationMS
		if warm > 5000 {
			warm = 5000
		}
		opts.WarmupMS = warm
	}
	sv, _, err := b.NewSession(opts)
	if err != nil {
		return Result{}, err
	}
	w := NewWorkload(seed)
	w.InjectPoisson(sv, rps, 0, sim.Time(durationMS))
	return sv.Collect(), nil
}

// MaxThroughputRPS binary-searches the highest arrival rate whose p99
// stays within the bound — the "maximum system throughput" metric of
// Fig. 1(a) and Fig. 8. The search brackets [1, hi] and refines to
// within ~2 %.
func (b Bench) MaxThroughputRPS(hi float64, durationMS float64, seed int64) (float64, error) {
	return b.MaxThroughputRPSWith(Options{}, hi, durationMS, seed)
}

// MaxThroughputRPSWith is MaxThroughputRPS with explicit session options
// — how the batching experiments search the QoS-compliant maximum with
// the admission batcher enabled.
func (b Bench) MaxThroughputRPSWith(opts Options, hi float64, durationMS float64, seed int64) (float64, error) {
	if hi <= 1 {
		hi = 256
	}
	probe := func(rps float64, s int64) (bool, error) {
		// Low-rate probes need enough post-warmup arrivals for the 1 %
		// criterion to be meaningful: stretch the duration so at least
		// ~300 requests are measured.
		dur := durationMS
		if need := 300.0 / rps * 1000; need > dur {
			dur = need
		}
		res, err := b.ServeConstantLoadWith(opts, rps, dur, s)
		if err != nil {
			return false, err
		}
		if res.Completed == 0 || res.Measured == 0 {
			return false, nil
		}
		// The QoS criterion is "the 99th percentile stays within the
		// bound", i.e. at most 1 % of requests violate it. Testing the
		// violation ratio directly is the same criterion with less
		// finite-sample noise than the p99 order statistic.
		return res.ViolationRatio() <= 0.01 && res.PlanErrors == 0, nil
	}
	meets := func(rps float64) (bool, error) {
		ok, err := probe(rps, seed)
		if err != nil || ok {
			return ok, err
		}
		// A marginal miss can be finite-sample noise (a handful of
		// requests around the 1 % threshold): confirm with an
		// independent arrival realization before declaring failure.
		return probe(rps, seed+1)
	}
	lo := 1.0
	ok, err := meets(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	// Grow hi until it fails (or the cap is hit).
	for {
		ok, err := meets(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e5 {
			return lo, nil
		}
	}
	for hi-lo > math.Max(1, 0.02*lo) {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
