package main

import (
	"fmt"
	"math/rand"

	"poly/internal/cluster"
	"poly/internal/fault"
	"poly/internal/fleet"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
	"poly/internal/trace"
)

// Every workload serves ASR with Heter-Poly on Setting-I under the
// paper's 500 W cap (runtime.Bench's default), and leaves the first
// 10 s of arrivals out of the QoS statistics.
const (
	appName  = "ASR"
	warmupMS = 10_000
	// polyMaxRPS is the recorded Heter-Poly QoS maximum for ASR on
	// Setting-I (EXPERIMENTS.md). Using the constant keeps the
	// throughput search out of set-up.
	polyMaxRPS = 79.8
)

const (
	steadyRPS = 40 // half of polyMaxRPS
	steadyMS  = 300_000
	peakRPS   = 80 // the QoS knee
	// node-peak serves 64 independent 30 s episodes. At the knee the
	// governor settles early into one of two operating modes (p50 near
	// 102 ms or near 118 ms; about one seed in four lands in the
	// second) and keeps it for the whole run, so one long episode
	// would make every simulated number bimodal across seeds. Pooling
	// episodes with their own seeds averages the modes instead; with
	// 16 episodes the seed still moved alloc_kb_per_req and sim_p99_ms
	// by up to a third of their bounds, with 64 by at most a quarter.
	peakEpisodes = 64
	peakMS       = 30_000

	fleetNodes = 8
	fleetMS    = 120_000 // the 24 h trace, compressed
	// fleetLoad is the exp fleet experiment's share of the fleet's QoS
	// capacity at full trace utilization.
	fleetLoad = 0.8
	// The fleet scenario is pinned: its trace shape, arrival draws and
	// fault plan do not follow --seed. A herding fleet amplifies any
	// change in arrival times, so across seeds its simulated p99 spans
	// 4 to 27 s; no bound could tell a regression from that spread.
	fleetTraceSeed   = 5 // the exp package's diurnal trace
	fleetArrivalSeed = 1
	fleetFaultSeed   = 1
)

// workload is one named traffic mix. Each repetition provisions a fresh
// target, injects the arrivals and drains it, so repetitions of one
// seed are independent and must agree bit for bit.
type workload struct {
	name  string
	fleet bool
	// loadRPS is the per-node arrival rate the replay planners are
	// hinted with.
	loadRPS float64
	// build provisions one repetition's target. tel is the traced
	// run's sink; only node workloads take one (a fleet gives every
	// shard its own recorder).
	build func(b runtime.Bench, tel telemetry.Sink) (target, error)
	// arrivals returns one injector per episode for a seed, so that
	// drawing the inputs stays out of the timed inject step. A
	// repetition serves the episodes one after another, each on a fresh
	// target, and pools their outcomes.
	arrivals func(seed int64) []func(runtime.ArrivalTarget) int
}

var workloads = []workload{
	{
		name:    "node-steady",
		loadRPS: steadyRPS,
		build:   buildNode,
		arrivals: func(seed int64) []func(runtime.ArrivalTarget) int {
			// The seed sets the phase of the constant-interval stream.
			phase := sim.Time(rand.New(rand.NewSource(seed)).Float64() * 1000 / steadyRPS)
			return []func(runtime.ArrivalTarget) int{func(t runtime.ArrivalTarget) int {
				return runtime.NewWorkload(seed).InjectConstant(t, steadyRPS, phase, steadyMS)
			}}
		},
	},
	{
		name:    "node-peak",
		loadRPS: peakRPS,
		build:   buildNode,
		arrivals: func(seed int64) []func(runtime.ArrivalTarget) int {
			rng := rand.New(rand.NewSource(seed))
			out := make([]func(runtime.ArrivalTarget) int, peakEpisodes)
			for i := range out {
				s := rng.Int63()
				out[i] = func(t runtime.ArrivalTarget) int {
					return runtime.NewWorkload(s).InjectPoisson(t, peakRPS, 0, peakMS)
				}
			}
			return out
		},
	},
	{
		name:    "fleet-faults",
		fleet:   true,
		loadRPS: fleetLoad * polyMaxRPS,
		build:   buildFleet,
		arrivals: func(int64) []func(runtime.ArrivalTarget) int {
			tr := trace.Synthesize(trace.SynthOptions{Seed: fleetTraceSeed})
			compress := tr.DurationMS() / fleetMS
			rate := func(at sim.Time) float64 {
				return fleetLoad * fleetNodes * polyMaxRPS * tr.At(float64(at)*compress)
			}
			return []func(runtime.ArrivalTarget) int{func(t runtime.ArrivalTarget) int {
				return runtime.NewWorkload(fleetArrivalSeed).InjectRate(t, rate, fleetMS, 5000)
			}}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// target is what a repetition drives: one node's server or a fleet.
type target interface {
	runtime.ArrivalTarget
	collect() outcome
	// nodes lists the provisioned nodes in shard order.
	nodes() []*cluster.Node
}

func buildNode(b runtime.Bench, tel telemetry.Sink) (target, error) {
	sv, node, err := b.NewShardSession(sim.New(), "", runtime.Options{WarmupMS: warmupMS, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	return &nodeTarget{Server: sv, node: node}, nil
}

// faultConfig is the fleet's boardfail preset with a horizon covering
// the arrivals and the drain; the preset's 120 s default would stop
// generating faults partway through.
func faultConfig() (fault.Config, error) {
	cfg, err := fault.Preset("boardfail", fleetFaultSeed)
	cfg.HorizonMS = 4 * fleetMS
	return cfg, err
}

func buildFleet(b runtime.Bench, _ telemetry.Sink) (target, error) {
	cfg, err := faultConfig()
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(b, fleet.Options{
		Nodes:         fleetNodes,
		Policy:        fleet.LeastUtil,
		WithTelemetry: true,
		Runtime:       runtime.Options{WarmupMS: warmupMS, BatchWaitMS: 4, Faults: &cfg},
	})
	if err != nil {
		return nil, err
	}
	return &fleetTarget{Fleet: f, horizonMS: cfg.HorizonMS}, nil
}

type nodeTarget struct {
	*runtime.Server
	node *cluster.Node
}

func (t *nodeTarget) nodes() []*cluster.Node { return []*cluster.Node{t.node} }

func (t *nodeTarget) collect() outcome {
	r := t.Collect()
	return outcome{
		offered:   r.Arrivals,
		results:   []runtime.Result{r},
		p50:       r.P50MS,
		p99:       r.P99MS,
		powerW:    r.AvgPowerW,
		latencies: t.LatencySamples(),
		fired:     t.node.Sim.Fired(),
	}
}

type fleetTarget struct {
	*fleet.Fleet
	horizonMS float64
}

func (t *fleetTarget) nodes() []*cluster.Node {
	out := make([]*cluster.Node, t.Nodes())
	for i := range out {
		out[i] = t.Node(i)
	}
	return out
}

func (t *fleetTarget) collect() outcome {
	r := t.Collect()
	o := outcome{
		offered:        r.Injected,
		fleet:          true,
		fleetShed:      r.Shed,
		nodeDownEvents: r.NodeDownEvents,
		p50:            r.P50MS,
		p99:            r.P99MS,
		powerW:         r.AvgPowerW,
		durationMS:     r.DurationMS,
		horizonMS:      t.horizonMS,
		latencies:      t.LatencySamples(),
	}
	// In serial sync mode the shards share one simulator; count it once.
	seen := map[*sim.Simulator]bool{}
	for i, nr := range r.PerNode {
		o.results = append(o.results, nr.Result)
		o.placements = append(o.placements, nr.Placements)
		if s := t.Node(i).Sim; !seen[s] {
			seen[s] = true
			o.fired += s.Fired()
		}
	}
	return o
}
