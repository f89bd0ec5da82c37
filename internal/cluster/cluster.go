// Package cluster assembles Poly leaf nodes: a CPU host plus a set of GPU
// and FPGA boards provisioned under a node power cap (Section II-A).
//
// Three architectures are compared throughout the paper: Homo-GPU and
// Homo-FPGA spend the whole power budget on one accelerator family, while
// Heter-Poly splits it (50 %–50 % by default, other ratios in Fig. 13).
// Board counts follow Table III for the three hardware settings.
package cluster

import (
	"fmt"
	"math"

	"poly/internal/device"
	"poly/internal/sim"
)

// Architecture selects how the node spends its power budget.
type Architecture int

// The three system architectures of Section II-A.
const (
	HomoGPU Architecture = iota
	HomoFPGA
	HeterPoly
)

var archNames = [...]string{"Homo-GPU", "Homo-FPGA", "Heter-Poly"}

// String returns the paper's codename for the architecture.
func (a Architecture) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
	return archNames[a]
}

// Setting is one hardware generation (Table III).
type Setting struct {
	Name string
	GPU  device.GPUSpec
	FPGA device.FPGASpec
}

// The three settings of Table III.
var (
	SettingI   = Setting{Name: "Setting-I", GPU: device.AMDW9100, FPGA: device.Xilinx7V3}
	SettingII  = Setting{Name: "Setting-II", GPU: device.NvidiaK20, FPGA: device.XilinxZCU102}
	SettingIII = Setting{Name: "Setting-III", GPU: device.NvidiaK20, FPGA: device.IntelArria10}
)

// Settings returns the three hardware settings in order.
func Settings() []Setting { return []Setting{SettingI, SettingII, SettingIII} }

// Config describes a node to provision.
type Config struct {
	Arch    Architecture
	Setting Setting
	// PowerCapW is the node accelerator power budget (500 W in the
	// motivation study, 1000 W in the scalability study).
	PowerCapW float64
	// GPUShare is the fraction of the budget spent on GPUs for HeterPoly
	// (0.5 if zero). Ignored for the homogeneous architectures.
	GPUShare float64
}

// Plan is the provisioning outcome: how many boards of each family fit.
type Plan struct {
	Config
	NumGPU, NumFPGA int
}

// Provision computes board counts under the power cap using each board's
// provisioning power (the budget the datacenter operator charges per
// slot). It reproduces Table III: e.g. Setting-I at 500 W yields
// Homo-GPU = 2×W9100, Homo-FPGA = 10×7V3, Heter-Poly = 1×W9100 + 5×7V3.
func Provision(cfg Config) (Plan, error) {
	if cfg.PowerCapW <= 0 {
		return Plan{}, fmt.Errorf("cluster: non-positive power cap %v", cfg.PowerCapW)
	}
	share := cfg.GPUShare
	if share == 0 {
		share = 0.5
	}
	if share < 0 || share > 1 {
		return Plan{}, fmt.Errorf("cluster: GPU share %v outside [0,1]", share)
	}
	p := Plan{Config: cfg}
	gpuBudget, fpgaBudget := 0.0, 0.0
	switch cfg.Arch {
	case HomoGPU:
		gpuBudget = cfg.PowerCapW
	case HomoFPGA:
		fpgaBudget = cfg.PowerCapW
	case HeterPoly:
		gpuBudget = cfg.PowerCapW * share
		fpgaBudget = cfg.PowerCapW - gpuBudget
	default:
		return Plan{}, fmt.Errorf("cluster: unknown architecture %d", int(cfg.Arch))
	}
	if cfg.Setting.GPU.ProvisionPowerW > 0 {
		p.NumGPU = int(math.Floor(gpuBudget / cfg.Setting.GPU.ProvisionPowerW))
	}
	if cfg.Setting.FPGA.ProvisionPowerW > 0 {
		p.NumFPGA = int(math.Floor(fpgaBudget / cfg.Setting.FPGA.ProvisionPowerW))
	}
	if p.NumGPU == 0 && p.NumFPGA == 0 {
		return Plan{}, fmt.Errorf("cluster: power cap %vW too small for any accelerator in %s",
			cfg.PowerCapW, cfg.Setting.Name)
	}
	return p, nil
}

// Node is a provisioned leaf node bound to a simulator.
type Node struct {
	Plan  Plan
	Sim   *sim.Simulator
	GPUs  []*device.GPUDevice
	FPGAs []*device.FPGADevice
	PCIe  device.PCIeSpec
}

// Build instantiates the node's boards on a simulator.
func Build(s *sim.Simulator, plan Plan) *Node {
	return BuildNamed(s, plan, "")
}

// BuildNamed is Build with every board name prefixed — how a multi-node
// fleet keeps board names unique across its N shards (shard i's boards
// become "n<i>/gpu0", "n<i>/fpga3", ...), so fault scripts and fault
// seeds address one board of the fleet.
// An empty prefix reproduces Build exactly, so a 1-node fleet keeps the
// single-node board names and, with them, bit-identical plan-cache keys.
func BuildNamed(s *sim.Simulator, plan Plan, prefix string) *Node {
	n := &Node{Plan: plan, Sim: s, PCIe: device.DefaultPCIe}
	for i := 0; i < plan.NumGPU; i++ {
		n.GPUs = append(n.GPUs, device.NewGPU(s, fmt.Sprintf("%sgpu%d", prefix, i), plan.Setting.GPU))
	}
	for i := 0; i < plan.NumFPGA; i++ {
		n.FPGAs = append(n.FPGAs, device.NewFPGA(s, fmt.Sprintf("%sfpga%d", prefix, i), plan.Setting.FPGA))
	}
	return n
}

// ResourceCapacity is an allocatable resource envelope — of one board
// or of the whole node — in the units the telemetry resource gauges
// (poly_node_allocatable / poly_board_allocatable) export.
type ResourceCapacity struct {
	// ComputeSlots is how many boards can hold work concurrently.
	ComputeSlots float64
	// PowerW is the power budget: a board's peak draw, or the node's
	// provisioned cap.
	PowerW float64
	// FPGARegions is how many reconfigurable regions exist.
	FPGARegions float64
}

// Capacity returns the node's allocatable envelope: one compute slot
// per board, the provisioned power cap (falling back to aggregate peak
// draw if the plan carries no cap), and one region per FPGA.
func (n *Node) Capacity() ResourceCapacity {
	power := n.Plan.PowerCapW
	if power <= 0 {
		power = n.PeakPowerW()
	}
	return ResourceCapacity{
		ComputeSlots: float64(len(n.GPUs) + len(n.FPGAs)),
		PowerW:       power,
		FPGARegions:  float64(len(n.FPGAs)),
	}
}

// GPUBoardCapacity returns the per-board envelope of this node's GPUs.
func (n *Node) GPUBoardCapacity() ResourceCapacity {
	return ResourceCapacity{ComputeSlots: 1, PowerW: n.Plan.Setting.GPU.PeakPowerW}
}

// FPGABoardCapacity returns the per-board envelope of this node's FPGAs.
func (n *Node) FPGABoardCapacity() ResourceCapacity {
	return ResourceCapacity{ComputeSlots: 1, PowerW: n.Plan.Setting.FPGA.PeakPowerW, FPGARegions: 1}
}

// PowerW returns the node's instantaneous accelerator power draw,
// summed over the GPUs and then the FPGAs.
func (n *Node) PowerW() float64 {
	var w float64
	for _, g := range n.GPUs {
		w += g.PowerW()
	}
	for _, f := range n.FPGAs {
		w += f.PowerW()
	}
	return w
}

// EnergyMJ returns the node's accumulated accelerator energy, summed in
// PowerW's board order.
func (n *Node) EnergyMJ() float64 {
	var e float64
	for _, g := range n.GPUs {
		e += g.EnergyMJ()
	}
	for _, f := range n.FPGAs {
		e += f.EnergyMJ()
	}
	return e
}

// IdlePowerW returns the node's floor draw with every board idle at the
// nominal operating point.
func (n *Node) IdlePowerW() float64 {
	return float64(n.Plan.NumGPU)*n.Plan.Setting.GPU.IdlePowerW +
		float64(n.Plan.NumFPGA)*n.Plan.Setting.FPGA.IdlePowerW
}

// PeakPowerW returns the node's worst-case draw.
func (n *Node) PeakPowerW() float64 {
	return float64(n.Plan.NumGPU)*n.Plan.Setting.GPU.PeakPowerW +
		float64(n.Plan.NumFPGA)*n.Plan.Setting.FPGA.PeakPowerW
}

// CapexUSD returns the accelerator purchase cost, used by the TCO model.
func (n *Node) CapexUSD() float64 {
	return float64(n.Plan.NumGPU)*n.Plan.Setting.GPU.PriceUSD +
		float64(n.Plan.NumFPGA)*n.Plan.Setting.FPGA.PriceUSD
}
