// Package metrics implements the paper's evaluation metrics: energy
// proportionality (Eq. 1), QoS violation ratios, and the TCO-based cost
// efficiency of Section VI-E.
package metrics

import "fmt"

// PowerCurve is a system's measured power draw as a function of load
// (fraction of maximum QoS-compliant throughput, in [0, 1]).
type PowerCurve struct {
	// Loads are the load levels, ascending, in [0, 1].
	Loads []float64
	// PowerW are the measured node powers at each level.
	PowerW []float64
}

// Validate checks curve invariants.
func (c *PowerCurve) Validate() error {
	if len(c.Loads) != len(c.PowerW) {
		return fmt.Errorf("metrics: %d loads vs %d powers", len(c.Loads), len(c.PowerW))
	}
	if len(c.Loads) < 2 {
		return fmt.Errorf("metrics: power curve needs at least two points")
	}
	for i, l := range c.Loads {
		if l < 0 || l > 1 {
			return fmt.Errorf("metrics: load %v outside [0,1]", l)
		}
		if i > 0 && l <= c.Loads[i-1] {
			return fmt.Errorf("metrics: loads must be strictly ascending")
		}
		if c.PowerW[i] < 0 {
			return fmt.Errorf("metrics: negative power %v", c.PowerW[i])
		}
	}
	return nil
}

// trapezoid integrates y over x.
func trapezoid(x, y []float64) float64 {
	var area float64
	for i := 1; i < len(x); i++ {
		area += (y[i] + y[i-1]) / 2 * (x[i] - x[i-1])
	}
	return area
}

// EnergyProportionality computes EP (Eq. 1):
//
//	EP = 1 − (Area_actual − Area_ideal) / Area_ideal
//
// where the ideal system's power is linearly proportional to throughput —
// zero at idle, the system's own full-load power at 100 % load — and
// areas are under the power-vs-load curves. EP = 1 for a perfectly
// proportional system; lower (possibly negative) for systems with high
// idle floors.
func EnergyProportionality(c PowerCurve) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	peak := c.PowerW[len(c.PowerW)-1]
	if peak <= 0 {
		return 0, fmt.Errorf("metrics: full-load power must be positive")
	}
	// Extend the measured curve to cover [0, 1] by clamping endpoints.
	loads := append([]float64(nil), c.Loads...)
	powers := append([]float64(nil), c.PowerW...)
	if loads[0] > 0 {
		loads = append([]float64{0}, loads...)
		powers = append([]float64{powers[0]}, powers...)
	}
	if last := loads[len(loads)-1]; last < 1 {
		loads = append(loads, 1)
		powers = append(powers, peak)
	}
	actual := trapezoid(loads, powers)
	ideal := peak / 2 // ∫0..1 peak·l dl
	return 1 - (actual-ideal)/ideal, nil
}

// TCOParams is the monthly total-cost-of-ownership model of [57] with the
// parameter values used by Sirius [4]: amortized server and accelerator
// capital, datacenter capital per provisioned watt, and the power bill
// under the facility PUE.
type TCOParams struct {
	// ServerCostUSD is the host server (CPU, DRAM, chassis) price.
	ServerCostUSD float64
	// AcceleratorCostUSD is the summed board price.
	AcceleratorCostUSD float64
	// AmortizationMonths spreads capital costs (36 months, [4]).
	AmortizationMonths float64
	// DatacenterCostPerWatt is facility capital per provisioned watt
	// ($10/W), amortized over DatacenterAmortMonths (120).
	DatacenterCostPerWatt float64
	DatacenterAmortMonths float64
	// ProvisionedPowerW is the power budget reserved for the node.
	ProvisionedPowerW float64
	// AvgPowerW is the measured average draw.
	AvgPowerW float64
	// PUE is the facility power-usage effectiveness (1.1).
	PUE float64
	// ElectricityUSDPerKWh is the energy price ($0.067/kWh).
	ElectricityUSDPerKWh float64
}

// DefaultTCO returns the Sirius-parameterized model for a node.
func DefaultTCO(acceleratorCostUSD, provisionedW, avgPowerW float64) TCOParams {
	return TCOParams{
		ServerCostUSD:         2500,
		AcceleratorCostUSD:    acceleratorCostUSD,
		AmortizationMonths:    36,
		DatacenterCostPerWatt: 10,
		DatacenterAmortMonths: 120,
		ProvisionedPowerW:     provisionedW,
		AvgPowerW:             avgPowerW,
		PUE:                   1.1,
		ElectricityUSDPerKWh:  0.067,
	}
}

// MonthlyUSD returns the node's monthly TCO.
func (p TCOParams) MonthlyUSD() (float64, error) {
	if p.AmortizationMonths <= 0 || p.DatacenterAmortMonths <= 0 {
		return 0, fmt.Errorf("metrics: non-positive amortization")
	}
	if p.PUE < 1 {
		return 0, fmt.Errorf("metrics: PUE below 1")
	}
	if p.AvgPowerW < 0 || p.ProvisionedPowerW < 0 {
		return 0, fmt.Errorf("metrics: negative power")
	}
	capex := (p.ServerCostUSD + p.AcceleratorCostUSD) / p.AmortizationMonths
	dc := p.DatacenterCostPerWatt * p.ProvisionedPowerW / p.DatacenterAmortMonths
	const hoursPerMonth = 730
	energy := p.AvgPowerW / 1000 * p.PUE * hoursPerMonth * p.ElectricityUSDPerKWh
	return capex + dc + energy, nil
}

// CostEfficiency is Section VI-E's metric: maximum QoS-compliant
// throughput divided by monthly TCO (RPS per dollar).
func CostEfficiency(maxRPS float64, p TCOParams) (float64, error) {
	if maxRPS < 0 {
		return 0, fmt.Errorf("metrics: negative throughput")
	}
	tco, err := p.MonthlyUSD()
	if err != nil {
		return 0, err
	}
	if tco <= 0 {
		return 0, fmt.Errorf("metrics: non-positive TCO")
	}
	return maxRPS / tco, nil
}

// ViolationRatio returns the fraction of latencies above boundMS.
func ViolationRatio(latencies []float64, boundMS float64) float64 {
	if len(latencies) == 0 {
		return 0
	}
	n := 0
	for _, l := range latencies {
		if l > boundMS {
			n++
		}
	}
	return float64(n) / float64(len(latencies))
}
