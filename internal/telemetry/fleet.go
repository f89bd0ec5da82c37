package telemetry

import (
	"io"
	"net/http"
	"sync"
)

// FleetRollup aggregates per-shard Recorders into fleet-level gauges —
// the cluster view a router or autoscaler scrapes, in the same
// allocated/allocatable/utilization_ratio shape as the per-node
// poly_node_* gauges:
//
//	poly_fleet_allocated{resource}          sum over nodes
//	poly_fleet_allocatable{resource}        sum over nodes
//	poly_fleet_utilization_ratio{resource}  fleet allocated / allocatable
//	poly_fleet_nodes                        registered node count
//	poly_fleet_node_health{node,state}      1 for the node's current state
//
// A shared Recorder across shards would corrupt the node gauges (each
// shard re-registers allocatable and the board maps collide), so every
// shard keeps its own Recorder and the rollup reads them at sync time.
//
// The rollup tolerates concurrent scrape: Sync, SetNodeHealth, AddNode,
// and WritePrometheus serialize on an internal mutex, so an HTTP
// /metrics scrape racing a fleet's health refresh sees a consistent
// gauge set.
type FleetRollup struct {
	mu    sync.Mutex
	reg   *Registry
	nodes []fleetNode

	nodesG *Metric
	res    [numResources]resGauges
	resOn  [numResources]bool
}

type fleetNode struct {
	name string
	rec  *Recorder
	// health holds the state-labeled 0/1 gauges, indexed like
	// healthStateNames.
	health []*Metric
	state  int
}

// fleetHealthStates are the exported node-health states, matching
// fleet.NodeHealth.String() values.
var fleetHealthStates = [...]string{"healthy", "suspect", "down", "draining"}

// NewFleetRollup returns an empty rollup with its own registry.
func NewFleetRollup() *FleetRollup {
	f := &FleetRollup{reg: NewRegistry()}
	f.nodesG = f.reg.Gauge("poly_fleet_nodes", "Nodes registered in the fleet.")
	return f
}

// Registry exposes the rollup's registry for scraping or embedding.
func (f *FleetRollup) Registry() *Registry { return f.reg }

// AddNode registers one shard's recorder under a node name.
func (f *FleetRollup) AddNode(name string, rec *Recorder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := fleetNode{name: name, rec: rec}
	for _, st := range fleetHealthStates {
		n.health = append(n.health, f.reg.Gauge("poly_fleet_node_health",
			"1 when the node is in the labeled state.", "node", name, "state", st))
	}
	n.health[0].Set(1)
	f.nodes = append(f.nodes, n)
	f.nodesG.Set(float64(len(f.nodes)))
}

// SetNodeHealth flips the node's state-labeled health gauges. Unknown
// node names and states are ignored.
func (f *FleetRollup) SetNodeHealth(name, state string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	si := -1
	for i, st := range fleetHealthStates {
		if st == state {
			si = i
			break
		}
	}
	if si < 0 {
		return
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		if n.name != name {
			continue
		}
		n.health[n.state].Set(0)
		n.health[si].Set(1)
		n.state = si
		return
	}
}

// Sync pulls every shard recorder's live node occupancy and refreshes
// the fleet aggregate gauges.
func (f *FleetRollup) Sync() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ri, resource := range resourceNames {
		var alloc, allocatable float64
		any := false
		for _, n := range f.nodes {
			a, cap, ok := n.rec.NodeResource(resource)
			if !ok {
				continue
			}
			any = true
			alloc += a
			allocatable += cap
		}
		if !any {
			continue
		}
		if !f.resOn[ri] {
			f.resOn[ri] = true
			f.res[ri] = resGauges{
				allocated: f.reg.Gauge("poly_fleet_allocated",
					"Fleet resource currently in use (sum over nodes).", "resource", resource),
				allocatable: f.reg.Gauge("poly_fleet_allocatable",
					"Fleet resource capacity (sum over nodes).", "resource", resource),
				ratio: f.reg.Gauge("poly_fleet_utilization_ratio",
					"Fleet allocated over allocatable per resource.", "resource", resource),
			}
		}
		g := f.res[ri]
		g.allocated.Set(alloc)
		g.allocatable.Set(allocatable)
		if allocatable > 0 {
			g.ratio.Set(alloc / allocatable)
		} else {
			g.ratio.Set(0)
		}
	}
}

// WritePrometheus syncs the aggregates and writes the rollup's registry
// in Prometheus text exposition format.
func (f *FleetRollup) WritePrometheus(w io.Writer) error {
	f.Sync()
	return f.reg.WritePrometheus(w)
}

// MetricsHandler serves WritePrometheus over HTTP — the fleet-level
// /metrics endpoint, mirroring Recorder.MetricsHandler.
func (f *FleetRollup) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = f.WritePrometheus(w)
	})
}
