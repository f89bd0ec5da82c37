package telemetry

import "poly/internal/sim"

// Resource names, in the allocated/allocatable/utilization_ratio gauge
// shape a fleet router bin-packs against (the kube-binpacking-exporter
// convention): one gauge triple per resource per node, plus per-board
// variants.
const (
	// ResComputeSlots counts busy execution slots: a GPU or FPGA board
	// contributes one allocatable slot, allocated while it has work in
	// flight.
	ResComputeSlots = "compute_slots"
	// ResPowerW is instantaneous power draw against the board's peak (or
	// the node's provisioned cap).
	ResPowerW = "power_watts"
	// ResFPGARegions counts FPGA reconfigurable regions occupied by a
	// resident bitstream.
	ResFPGARegions = "fpga_regions"
)

const numResources = 3

// resourceIndex maps a resource name to its fixed slot; unknown names
// return -1 (the event is ignored rather than corrupting a known slot).
func resourceIndex(resource string) int {
	switch resource {
	case ResComputeSlots:
		return 0
	case ResPowerW:
		return 1
	case ResFPGARegions:
		return 2
	default:
		return -1
	}
}

// resVals is the raw occupancy of one resource on one owner. The hot
// path updates these floats; gauges are synced at scrape time.
type resVals struct {
	allocated   float64
	allocatable float64
}

// resGauges are the exported triple for one resource on one owner.
type resGauges struct {
	allocated   *Metric
	allocatable *Metric
	ratio       *Metric
}

// RegisterNodeResource implements Sink.
func (r *Recorder) RegisterNodeResource(resource string, allocatable float64) {
	i := resourceIndex(resource)
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodeRes[i] = resVals{allocatable: allocatable}
	if !r.nodeResOn[i] {
		r.nodeResOn[i] = true
		r.nodeGauges[i] = resGauges{
			allocated: r.reg.get("poly_node_allocated",
				"Node resource currently in use.", kindGauge, Labels{"resource", resource}),
			allocatable: r.reg.get("poly_node_allocatable",
				"Node resource capacity.", kindGauge, Labels{"resource", resource}),
			ratio: r.reg.get("poly_node_utilization_ratio",
				"Node allocated over allocatable per resource.", kindGauge, Labels{"resource", resource}),
		}
	}
}

// RegisterBoardResource implements Sink.
func (r *Recorder) RegisterBoardResource(board, resource string, allocatable float64) {
	i := resourceIndex(resource)
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bs := r.boardLocked(board)
	bs.res[i] = resVals{allocatable: allocatable}
	if !bs.resOn[i] {
		bs.resOn[i] = true
		bs.gauges[i] = resGauges{
			allocated: r.reg.get("poly_board_allocated",
				"Board resource currently in use.", kindGauge,
				Labels{"board", board, "resource", resource}),
			allocatable: r.reg.get("poly_board_allocatable",
				"Board resource capacity.", kindGauge,
				Labels{"board", board, "resource", resource}),
			ratio: r.reg.get("poly_board_utilization_ratio",
				"Board allocated over allocatable per resource.", kindGauge,
				Labels{"board", board, "resource", resource}),
		}
	}
}

// setBoardResLocked moves one board's raw occupancy and keeps the node
// aggregate incremental, so scrape-time sync never walks event history.
func (r *Recorder) setBoardResLocked(bs *boardState, i int, allocated float64) {
	old := bs.res[i].allocated
	if allocated == old {
		return
	}
	bs.res[i].allocated = allocated
	r.nodeRes[i].allocated += allocated - old
}

// BusyChanged implements Sink (the device.ResourceObserver subset). A
// board's compute slot is allocated while any task is in flight — FPGA
// pipelining above one in-flight task does not over-allocate the slot.
func (r *Recorder) BusyChanged(device string, busy int, at sim.Time) {
	occ := 0.0
	if busy > 0 {
		occ = 1
	}
	r.mu.Lock()
	r.setBoardResLocked(r.boardLocked(device), 0, occ)
	r.mu.Unlock()
}

// PowerChanged implements Sink (the device.ResourceObserver subset).
func (r *Recorder) PowerChanged(device string, watts float64, at sim.Time) {
	r.mu.Lock()
	r.setBoardResLocked(r.boardLocked(device), 1, watts)
	r.mu.Unlock()
}

// BitstreamResident implements Sink (the device.ResourceObserver subset).
func (r *Recorder) BitstreamResident(device, implID string, at sim.Time) {
	occ := 0.0
	if implID != "" {
		occ = 1
	}
	r.mu.Lock()
	r.setBoardResLocked(r.boardLocked(device), 2, occ)
	r.mu.Unlock()
}

func syncResGauges(g resGauges, v resVals) {
	g.allocated.set(v.allocated)
	g.allocatable.set(v.allocatable)
	if v.allocatable > 0 {
		g.ratio.set(v.allocated / v.allocatable)
	} else {
		g.ratio.set(0)
	}
}

// syncResourcesLocked pushes the raw occupancy floats into the exported
// gauges; called once per scrape.
func (r *Recorder) syncResourcesLocked() {
	for i := 0; i < numResources; i++ {
		if r.nodeResOn[i] {
			syncResGauges(r.nodeGauges[i], r.nodeRes[i])
		}
	}
	for _, bs := range r.boardList {
		for i := 0; i < numResources; i++ {
			if bs.resOn[i] {
				syncResGauges(bs.gauges[i], bs.res[i])
			}
		}
	}
}
