package fleet

import (
	"fmt"
	"strings"
)

// Policy selects how the router places an arrival on a node. All three
// policies read the same per-node allocated/allocatable/utilization
// signals the telemetry resource gauges export (the
// kube-binpacking-exporter shape), so a policy is a pure function of the
// fleet's live state and the placement sequence is a deterministic
// function of the arrival trace.
type Policy int

const (
	// Binpack packs work onto the fewest nodes: among nodes that still
	// have a free compute slot, the most-utilized one wins, so the fleet
	// concentrates load and leaves whole nodes idle for the governor to
	// park (and, next, for the autoscaler to release). When every node is
	// saturated it degrades to least-utilization overflow.
	Binpack Policy = iota
	// Spread rotates placements round-robin across eligible nodes —
	// the latency-first policy: every node's queues stay shallow and a
	// single node's fault blast radius is minimized.
	Spread
	// LeastUtil places each arrival on the node with the lowest
	// backlog-per-slot utilization ratio, weighing skewed node capacities
	// the way the paper's cluster-level dispatcher weighs heterogeneous
	// back-ends: a double-capacity node absorbs double the load before it
	// looks equally busy.
	LeastUtil
)

var policyNames = [...]string{"binpack", "spread", "least-util"}

// String returns the policy's CLI name.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Policies returns all routing policies in declaration order.
func Policies() []Policy { return []Policy{Binpack, Spread, LeastUtil} }

// ParsePolicy maps a CLI name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "binpack", "pack":
		return Binpack, nil
	case "spread", "roundrobin", "rr":
		return Spread, nil
	case "least-util", "leastutil", "least-utilization":
		return LeastUtil, nil
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (want binpack, spread, or least-util)", s)
}

// Signals is one node's routing view in the allocated/allocatable shape
// of the poly_node_* resource gauges: compute-slot occupancy plus the
// queue backlog and request in-flight count that break ties between
// equally-occupied nodes.
type Signals struct {
	// SlotsAllocated counts boards with work queued or running;
	// SlotsAllocatable is the node's board count.
	SlotsAllocated, SlotsAllocatable float64
	// Backlog is the total queued+running task count across boards — the
	// utilization numerator (tasks per allocatable slot), which keeps
	// discriminating after every slot is busy.
	Backlog int
	// InFlight counts admitted, unfinished requests on the shard.
	InFlight int
}

// Utilization is the node's backlog per allocatable compute slot — the
// ratio the LeastUtil policy minimizes and Binpack maximizes subject to
// a free slot. Mirrors poly_node_utilization_ratio{resource=
// "compute_slots"} with queue depth folded in so saturated nodes stay
// comparable.
func (s Signals) Utilization() float64 {
	if s.SlotsAllocatable == 0 {
		return 0
	}
	return float64(s.Backlog) / s.SlotsAllocatable
}

// HasFreeSlot reports whether some board is idle — binpack's headroom
// criterion.
func (s Signals) HasFreeSlot() bool { return s.SlotsAllocated < s.SlotsAllocatable }

// signals snapshots one shard's routing view, reading each board in
// place: GPUs, then FPGAs. Pure reads: QueueLen and the in-flight
// counter never mutate device or server state, so probing a node cannot
// perturb the run it routes into.
func (sh *shard) signals() Signals {
	var s Signals
	s.SlotsAllocatable = float64(len(sh.node.GPUs) + len(sh.node.FPGAs))
	for _, g := range sh.node.GPUs {
		s.addBoard(g.QueueLen())
	}
	for _, f := range sh.node.FPGAs {
		s.addBoard(f.QueueLen())
	}
	s.InFlight = sh.srv.InFlight()
	return s
}

// addBoard folds one board's queued+running task count into s.
func (s *Signals) addBoard(q int) {
	s.Backlog += q
	if q > 0 {
		s.SlotsAllocated++
	}
}

// NodeHealth is the fleet's belief about one node — the per-board
// healthy/suspect/down machine generalized upward. Draining is an
// operator (or autoscaler) intent, not an inferred state.
type NodeHealth int

const (
	// NodeHealthy: every board the shard knows is healthy.
	NodeHealthy NodeHealth = iota
	// NodeSuspect: at least one board is suspect or down, but serving
	// capacity remains. The router deprioritizes but does not exclude it
	// — the same probe-traffic rationale as board probation.
	NodeSuspect
	// NodeDown: no healthy or suspect board remains; the node cannot
	// serve. The router excludes it and rebalances arrivals elsewhere.
	NodeDown
	// NodeDraining: operator-drained; no new placements, in-flight work
	// completes. The node-count actuator drains from the top.
	NodeDraining
)

var healthNames = [...]string{"healthy", "suspect", "down", "draining"}

// String returns the state name.
func (h NodeHealth) String() string {
	if h < 0 || int(h) >= len(healthNames) {
		return fmt.Sprintf("NodeHealth(%d)", int(h))
	}
	return healthNames[h]
}

// health infers the shard's current node-level state from its server's
// board beliefs. Draining wins over inference: a drained node reports
// draining even while its boards are fine.
func (sh *shard) health() NodeHealth {
	if sh.draining {
		return NodeDraining
	}
	healthy, suspect, down := sh.srv.BoardHealthCounts()
	switch {
	case healthy == 0 && suspect == 0:
		return NodeDown
	case down > 0 || suspect > 0:
		return NodeSuspect
	default:
		return NodeHealthy
	}
}

// pick chooses the shard for one arrival, or nil to shed it at the
// fleet. Candidates partition by health — healthy nodes first, suspect
// nodes only when no healthy node exists, down/draining never — and the
// policy decides within the partition. Runs entirely on pure reads
// inside the single-threaded simulator, so placement is deterministic;
// both partitions live in reused buffers, so a pick allocates nothing.
func (f *Fleet) pick() *shard {
	healthyC, suspectC := f.healthyC[:0], f.suspectC[:0]
	for _, sh := range f.shards {
		st := sh.health()
		f.noteHealth(sh, st)
		switch st {
		case NodeHealthy:
			healthyC = append(healthyC, candidate{sh: sh, sig: sh.signals()})
		case NodeSuspect:
			suspectC = append(suspectC, candidate{sh: sh, sig: sh.signals()})
		}
	}
	f.healthyC, f.suspectC = healthyC, suspectC
	cands := healthyC
	if len(cands) == 0 {
		cands = suspectC
	}
	if len(cands) == 0 {
		return nil
	}
	switch f.policy {
	case Spread:
		sh := cands[f.rr%len(cands)].sh
		f.rr++
		return sh
	case LeastUtil:
		return leastUtilized(cands).sh
	default: // Binpack
		best := -1
		for i := range cands {
			if !cands[i].sig.HasFreeSlot() {
				continue
			}
			if best < 0 || cands[i].sig.Utilization() > cands[best].sig.Utilization() {
				best = i
			}
		}
		if best >= 0 {
			return cands[best].sh
		}
		// Every candidate is slot-saturated: overflow to the least
		// utilized so the backlog spreads instead of piling on one node.
		return leastUtilized(cands).sh
	}
}

// candidate pairs a shard with its snapshot for one routing decision.
type candidate struct {
	sh  *shard
	sig Signals
}

// leastUtilized returns the candidate with the lowest utilization,
// breaking ties by in-flight count and then by node index (slice order).
func leastUtilized(cands []candidate) candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		bu, cu := best.sig.Utilization(), c.sig.Utilization()
		if cu < bu || (cu == bu && c.sig.InFlight < best.sig.InFlight) {
			best = c
		}
	}
	return best
}

// noteHealth tracks per-shard state transitions the router observes:
// a transition into NodeDown counts once per episode (the drain/
// rebalance event), mirroring the board-level BoardDownEvents counter.
func (f *Fleet) noteHealth(sh *shard, st NodeHealth) {
	if st == sh.lastHealth {
		return
	}
	if st == NodeDown {
		f.nodeDownEvents++
	}
	sh.lastHealth = st
}
