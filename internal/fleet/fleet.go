// Package fleet shards Poly across N leaf nodes behind a top-level
// router — the paper's datacenter story (Section VI-C) lifted from one
// node to a cluster. Each shard is a full cluster.Node + runtime.Server
// pair (its own boards, planner, plan cache, governor, and health
// machinery), and a Router admits every arrival by placing it on a node
// using pluggable policies fed by the same per-node
// allocated/allocatable/utilization signals the telemetry resource
// gauges export.
//
// Every shard runs on its own simulator, and Collect steps them all on
// the caller in epochs: the router is the only cross-shard edge and
// every arrival time is known at injection, so the shards advance up to
// the next routed arrival, stop on a (time, sequence) barrier, and the
// router places that arrival before the next epoch (see drain).
//
// Determinism: placements, per-node outcomes, and the aggregate are pure
// functions of the arrival trace, bit-identical to running every shard
// on one shared simulator clock — the semantics the test-only oracle
// keeps executable, enforced by TestFleetParallelBitIdentity. Router
// bit-transparency: a 1-node fleet assembles the identical node (empty
// board-name prefix) and fires the identical event sequence as a direct
// runtime.Server session, enforced by TestFleetRouterBitTransparency the
// same way the telemetry, fault, and batching layers are gated.
//
// Node count is an actuator: SetTargetNodes drains shards from the top
// so a trace-driven autoscaler can scale the serving fleet against load
// (the ROADMAP's energy-proportionality item), with drained nodes
// completing in-flight work before the governor parks them.
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"poly/internal/cluster"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// Options configures a fleet.
type Options struct {
	// Nodes is the shard count (1 if zero; negative is an error).
	Nodes int
	// Policy is the router's placement policy (Binpack if zero; a value
	// outside Policies is an error).
	Policy Policy
	// NodeCapsW optionally skews per-node power caps (and with them
	// board counts): entry i overrides the bench's cap for shard i. A
	// zero entry keeps the bench default. Len may be shorter than Nodes.
	NodeCapsW []float64
	// Runtime is the per-shard server configuration. Runtime.Telemetry
	// must be nil — a recorder keys its node gauges by resource alone,
	// so one sink cannot hold N nodes; set WithTelemetry to give every
	// shard its own recorder instead.
	Runtime runtime.Options
	// WithTelemetry attaches a dedicated telemetry.Recorder to every
	// shard, reachable via Recorder. Collect steps every shard on the
	// caller's goroutine, which thereby owns all the recorders: read
	// them there, or scrape one live from elsewhere through its
	// MetricsHandler. Fleet-wide figures are sums over the shards'
	// poly_node_* series; no recorder aggregates them. Shard recorders
	// keep metrics and spans only: they hold no trace events or flight
	// ring, so their WriteTrace and WriteFlight return an error.
	WithTelemetry bool
}

// shard is one leaf node and its server, plus the router's view of it.
type shard struct {
	idx  int
	name string
	// sim is the clock the shard's events run on: its own, except
	// under the shared-clock test oracle.
	sim  *sim.Simulator
	node *cluster.Node
	srv  *runtime.Server
	rec  *telemetry.Recorder

	draining   bool
	lastHealth NodeHealth
}

// Fleet owns N shards and routes arrivals onto them. It implements
// runtime.ArrivalTarget, so the same Workload generators that drive a
// single server drive a fleet.
type Fleet struct {
	shards []*shard
	policy Policy

	// arrivals collects injected arrival times; drain stable-sorts them
	// at Collect (preserving injection order among equal times, the
	// shared clock's FIFO rule) and routes them epoch by epoch. cursor
	// is the next unrouted index.
	arrivals []sim.Time
	cursor   int

	// rr is the spread policy's round-robin cursor.
	rr int
	// healthyC and suspectC are the router's reusable candidate
	// buffers, one per health partition.
	healthyC, suspectC []candidate

	// pending counts injected arrivals not yet routed; the drain loop
	// runs while any shard or this counter is non-empty.
	pending        int
	injected       int
	shed           int
	nodeDownEvents int
	placements     []int
}

// New provisions a fleet of opts.Nodes shards of the given bench, each
// on a fresh simulator. With Nodes == 1 the shard is assembled exactly
// like a direct session (empty board-name prefix), which the router
// bit-transparency gate relies on.
func New(b runtime.Bench, opts Options) (*Fleet, error) {
	return newFleet(b, opts, nil)
}

// newFleet is New with every shard on the shared simulator when one is
// given — the seam the shared-clock test oracle builds its reference
// fleet through. Collect's drain needs a simulator per shard.
func newFleet(b runtime.Bench, opts Options, shared *sim.Simulator) (*Fleet, error) {
	n := opts.Nodes
	if n == 0 {
		n = 1
	}
	if n < 0 || opts.Policy < 0 || int(opts.Policy) >= len(policyNames) {
		return nil, fmt.Errorf("fleet: %d nodes under %v: want Nodes >= 0 and a policy from Policies", n, opts.Policy)
	}
	if opts.Runtime.Telemetry != nil {
		return nil, fmt.Errorf("fleet: Runtime.Telemetry must be nil (use WithTelemetry for per-shard recorders)")
	}
	f := &Fleet{
		policy:     opts.Policy,
		placements: make([]int, n),
	}
	for i := 0; i < n; i++ {
		prefix := ""
		if n > 1 {
			prefix = fmt.Sprintf("n%d/", i)
		}
		bi := b
		if i < len(opts.NodeCapsW) && opts.NodeCapsW[i] > 0 {
			bi.PowerCapW = opts.NodeCapsW[i]
		}
		ro := opts.Runtime
		sh := &shard{idx: i, name: fmt.Sprintf("n%d", i), sim: shared}
		if sh.sim == nil {
			sh.sim = sim.New()
		}
		if opts.WithTelemetry {
			// No caller can write a fleet's trace or flight dump, so a
			// shard recorder keeps neither.
			sh.rec = telemetry.NewWithOptions(telemetry.Options{TraceEventCap: -1, FlightRingCap: -1})
			ro.Telemetry = sh.rec
		}
		srv, node, err := bi.NewShardSession(sh.sim, prefix, ro)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		sh.node, sh.srv = node, srv
		f.shards = append(f.shards, sh)
	}
	return f, nil
}

// Nodes returns the shard count.
func (f *Fleet) Nodes() int { return len(f.shards) }

// Server returns shard i's server (panics on a bad index, like a slice).
func (f *Fleet) Server(i int) *runtime.Server { return f.shards[i].srv }

// Node returns shard i's provisioned node.
func (f *Fleet) Node(i int) *cluster.Node { return f.shards[i].node }

// Recorder returns shard i's telemetry recorder (nil without
// WithTelemetry).
func (f *Fleet) Recorder(i int) *telemetry.Recorder { return f.shards[i].rec }

// NodeHealthState returns the router's current belief about shard i.
func (f *Fleet) NodeHealthState(i int) NodeHealth { return f.shards[i].health() }

// DrainNode stops new placements on shard i; in-flight and already-
// placed work completes normally. Idempotent.
func (f *Fleet) DrainNode(i int) { f.shards[i].draining = true }

// UndrainNode returns a drained shard to the placement pool.
func (f *Fleet) UndrainNode(i int) { f.shards[i].draining = false }

// SetTargetNodes is the node-count actuator: shards below n are
// undrained, shards at or above n are drained. An autoscaler calls this
// against the live load; the router rebalances future arrivals onto the
// surviving shards immediately.
func (f *Fleet) SetTargetNodes(n int) {
	for i, sh := range f.shards {
		sh.draining = i >= n
	}
}

// ActiveNodes counts shards currently accepting placements.
func (f *Fleet) ActiveNodes() int {
	n := 0
	for _, sh := range f.shards {
		if !sh.draining {
			n++
		}
	}
	return n
}

// Inject records one arrival at the given absolute time. The routing
// decision is deferred to the arrival instant, when Collect's drain has
// stopped every shard's clock there, so it reads the fleet's live
// state. Implements runtime.ArrivalTarget.
func (f *Fleet) Inject(at sim.Time) {
	f.pending++
	f.arrivals = append(f.arrivals, at)
}

// routeOne routes a single arrival at the current instant: pick a node
// by policy and health, hand the arrival to its server, or shed it at
// the fleet when no node is eligible (the fast-rejection rationale of
// admission shedding, lifted to the cluster). The drain calls it with
// every shard's clock stopped at the arrival time, so the policy reads
// the same signals it would on a shared clock.
func (f *Fleet) routeOne() {
	f.pending--
	f.injected++
	sh := f.pick()
	if sh == nil {
		f.shed++
		return
	}
	f.placements[sh.idx]++
	sh.srv.RouteArrival()
}

// drained reports whether every arrival has been routed and every shard
// has admitted and completed its share.
func (f *Fleet) drained() bool {
	if f.pending > 0 {
		return false
	}
	for _, sh := range f.shards {
		if !sh.srv.Drained() {
			return false
		}
	}
	return true
}

// NodeResult is one shard's outcome with its fleet-level attribution.
type NodeResult struct {
	Name string
	// Placements counts arrivals the router placed on this node (==
	// the node's Result.Arrivals; kept separate so the invariant is
	// checkable from the outside).
	Placements int
	// Health is the router's belief at collection time.
	Health NodeHealth
	runtime.Result
}

// Result summarizes one fleet serving run.
type Result struct {
	Nodes  int
	Policy string
	// Injected counts arrivals offered to the router; Shed those with
	// no eligible node. Injected == sum(PerNode Placements) + Shed.
	Injected int
	Shed     int
	// NodeDownEvents counts router-observed node-down transitions.
	NodeDownEvents int
	PerNode        []NodeResult

	// Aggregate QoS over every shard (the fleet-level SLO view).
	Arrivals, Completed, Measured int
	Violations, PlanErrors        int
	P50MS, P99MS, MeanMS          float64
	BoundMS                       float64
	EnergyMJ, AvgPowerW           float64
	DurationMS, ThroughputRPS     float64
	FleetShedTotal                int // fleet-level + per-node admission sheds
}

// ViolationRatio is the fraction of measured requests over the bound.
func (r Result) ViolationRatio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Measured)
}

// String renders the fleet report: the aggregate first, then one line
// per node with its placement share and health.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet     %d nodes, policy %s: %d injected, %d placed, %d shed, %d node-down events\n",
		r.Nodes, r.Policy, r.Injected, r.Injected-r.Shed, r.Shed, r.NodeDownEvents)
	fmt.Fprintf(&b, "aggregate %d completed, %d measured; p50 %.2f ms p99 %.2f ms, violations %d (%.2f%%); %.1f mJ (avg %.1f W), %.1f req/s",
		r.Completed, r.Measured, r.P50MS, r.P99MS, r.Violations, 100*r.ViolationRatio(),
		r.EnergyMJ, r.AvgPowerW, r.ThroughputRPS)
	for _, nr := range r.PerNode {
		share := 0.0
		if placed := r.Injected - r.Shed; placed > 0 {
			share = float64(nr.Placements) / float64(placed)
		}
		fmt.Fprintf(&b, "\n  %-4s %-8s %5d placed (%4.1f%%)  p99 %7.2f ms  viol %5.2f%%  %6.1f W  %d GPU / %d FPGA tasks",
			nr.Name, nr.Health, nr.Placements, 100*share, nr.P99MS,
			100*nr.ViolationRatio(), nr.AvgPowerW, nr.GPUTasks, nr.FPGATasks)
	}
	return b.String()
}

// Collect drains the fleet until every shard is idle, then summarizes
// each shard and the aggregate. Call once, after all arrivals are
// injected.
func (f *Fleet) Collect() Result {
	f.drain()
	return f.result()
}

// drain is the fleet's drain loop. The router is the only cross-shard
// edge and every arrival time is known before Collect, so the lookahead
// is exact: between two consecutive routed arrivals, every shard's
// events are independent, and each shard can be stepped to the next
// arrival on its own simulator, one after another.
//
// Bit-identity with one shared clock hinges on event ordering at the
// arrival instant itself. On a shared simulator the routing event would
// be scheduled at injection time — before the run — so at its firing
// time t it precedes every event the run schedules at t (larger sequence
// numbers) but follows pre-run events at t (smaller ones, e.g. the
// construction-scheduled first governor tick). A per-shard sequence
// barrier reproduces that interleaving: marks snapshot each shard's next
// sequence number before any event fires, so RunUntilBarrier(t, mark)
// fires exactly the events that would have preceded the routing event at
// t, the router then places the arrivals at t in injection order (the
// shared clock's FIFO rule), and the next advance releases the
// run-scheduled events at t. The horizons replay Server.Collect's
// governor-period sequence per shard, so final clocks and power-sample
// times match bit-exactly — for a 1-node fleet, those of a direct
// session, which the bit-transparency gate checks.
func (f *Fleet) drain() {
	marks := make([]uint64, len(f.shards))
	for i, sh := range f.shards {
		marks[i] = sh.sim.SeqMark()
	}
	sort.SliceStable(f.arrivals, func(i, j int) bool { return f.arrivals[i] < f.arrivals[j] })
	period := sim.Time(f.shards[0].srv.GovernorPeriodMS())
	horizon := f.shards[0].sim.Now() + period
	for !f.drained() {
		f.advanceTo(marks, horizon)
		horizon += period
	}
	f.advanceTo(marks, horizon)
}

// advanceTo drives every shard to horizon h: for each arrival time t <=
// h, barrier-advance all shards to t and route the arrivals at t; then
// advance all shards fully to h.
func (f *Fleet) advanceTo(marks []uint64, h sim.Time) {
	for f.cursor < len(f.arrivals) && f.arrivals[f.cursor] <= h {
		t := f.arrivals[f.cursor]
		for i, sh := range f.shards {
			sh.sim.RunUntilBarrier(t, marks[i])
		}
		for f.cursor < len(f.arrivals) && f.arrivals[f.cursor] == t {
			f.routeOne()
			f.cursor++
		}
	}
	for _, sh := range f.shards {
		sh.sim.RunUntil(h)
	}
}

// result summarizes every shard and the aggregate after a drain.
func (f *Fleet) result() Result {
	res := Result{
		Nodes:          len(f.shards),
		Policy:         f.policy.String(),
		Injected:       f.injected,
		Shed:           f.shed,
		NodeDownEvents: f.nodeDownEvents,
		FleetShedTotal: f.shed,
	}
	var lat sim.Sample
	for i, sh := range f.shards {
		nr := NodeResult{
			Name:       sh.name,
			Placements: f.placements[i],
			Health:     sh.health(),
			Result:     sh.srv.Summarize(),
		}
		res.PerNode = append(res.PerNode, nr)
		res.Arrivals += nr.Arrivals
		res.Completed += nr.Completed
		res.Measured += nr.Measured
		res.Violations += nr.Violations
		res.PlanErrors += nr.PlanErrors
		res.EnergyMJ += nr.EnergyMJ
		res.FleetShedTotal += nr.Shed
		res.BoundMS = nr.BoundMS
		if nr.DurationMS > res.DurationMS {
			res.DurationMS = nr.DurationMS
		}
		for _, v := range sh.srv.LatencySamples() {
			lat.Add(v)
		}
	}
	res.P50MS = lat.Percentile(50)
	res.P99MS = lat.P99()
	res.MeanMS = lat.Mean()
	if res.DurationMS > 0 {
		res.AvgPowerW = res.EnergyMJ / res.DurationMS
		res.ThroughputRPS = float64(res.Completed) / res.DurationMS * 1000
	}
	return res
}

// LatencySamples returns every shard's post-warmup latencies
// concatenated in node order — the bitwise-comparison surface the
// determinism gates use.
func (f *Fleet) LatencySamples() []float64 {
	var out []float64
	for _, sh := range f.shards {
		out = append(out, sh.srv.LatencySamples()...)
	}
	return out
}
