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

// newResGauges registers one owner's gauge triple; scope is "node" or
// "board", and title its capitalized form for the help text.
func (r *Recorder) newResGauges(scope, title string, labels Labels) resGauges {
	return resGauges{
		allocated:   r.reg.get("poly_"+scope+"_allocated", title+" resource currently in use.", kindGauge, labels),
		allocatable: r.reg.get("poly_"+scope+"_allocatable", title+" resource capacity.", kindGauge, labels),
		ratio: r.reg.get("poly_"+scope+"_utilization_ratio",
			title+" allocated over allocatable per resource.", kindGauge, labels),
	}
}

// RegisterNodeResource implements Sink.
func (r *Recorder) RegisterNodeResource(resource string, allocatable float64) {
	i := resourceIndex(resource)
	if i < 0 {
		return
	}
	r.nodeRes[i] = resVals{allocatable: allocatable}
	if !r.nodeResOn[i] {
		r.nodeResOn[i] = true
		r.nodeGauges[i] = r.newResGauges("node", "Node", Labels{"resource", resource})
	}
}

// RegisterBoardResource implements Sink.
func (r *Recorder) RegisterBoardResource(board, resource string, allocatable float64) {
	i := resourceIndex(resource)
	if i < 0 {
		return
	}
	bs := r.board(board, "")
	bs.res[i] = resVals{allocatable: allocatable}
	if !bs.resOn[i] {
		bs.resOn[i] = true
		bs.gauges[i] = r.newResGauges("board", "Board", Labels{"board", board, "resource", resource})
	}
}

// setBoardRes moves one board's raw occupancy and keeps the node
// aggregate incremental, so scrape-time sync never walks event history.
func (r *Recorder) setBoardRes(bs *boardState, i int, allocated float64) {
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
	r.setBoardRes(r.board(device, ""), 0, occ)
}

// PowerChanged implements Sink (the device.ResourceObserver subset).
func (r *Recorder) PowerChanged(device string, watts float64, at sim.Time) {
	r.setBoardRes(r.board(device, ""), 1, watts)
}

// BitstreamResident implements Sink (the device.ResourceObserver subset).
func (r *Recorder) BitstreamResident(device, implID string, at sim.Time) {
	occ := 0.0
	if implID != "" {
		occ = 1
	}
	r.setBoardRes(r.board(device, ""), 2, occ)
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

// syncResources pushes the raw occupancy floats into the exported
// gauges; called once per scrape.
func (r *Recorder) syncResources() {
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
