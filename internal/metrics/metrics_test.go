package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnergyProportionalityIdealIsOne(t *testing.T) {
	// A perfectly proportional system: P = 100·load.
	c := PowerCurve{
		Loads:  []float64{0, 0.25, 0.5, 0.75, 1},
		PowerW: []float64{0, 25, 50, 75, 100},
	}
	ep, err := EnergyProportionality(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ep-1) > 1e-12 {
		t.Fatalf("ideal EP = %v, want 1", ep)
	}
}

func TestEnergyProportionalityFlatIsZero(t *testing.T) {
	// A completely non-proportional system: constant power.
	// Area_actual = P, Area_ideal = P/2 → EP = 1 − (P − P/2)/(P/2) = 0.
	c := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{100, 100}}
	ep, err := EnergyProportionality(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ep) > 1e-12 {
		t.Fatalf("flat EP = %v, want 0", ep)
	}
}

func TestEnergyProportionalityOrdersIdleFloors(t *testing.T) {
	// Higher idle floor ⇒ lower EP (the Fig. 1(b) intuition).
	low := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{10, 100}}
	high := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{60, 100}}
	epLow, err := EnergyProportionality(low)
	if err != nil {
		t.Fatal(err)
	}
	epHigh, err := EnergyProportionality(high)
	if err != nil {
		t.Fatal(err)
	}
	if epLow <= epHigh {
		t.Fatalf("EP ordering wrong: low-idle %v vs high-idle %v", epLow, epHigh)
	}
	if epLow >= 1 {
		t.Fatalf("nonzero idle cannot reach EP 1: %v", epLow)
	}
}

func TestEnergyProportionalityClampsPartialCurves(t *testing.T) {
	// A curve measured from 10 % to 90 % load still evaluates.
	c := PowerCurve{Loads: []float64{0.1, 0.5, 0.9}, PowerW: []float64{40, 70, 95}}
	ep, err := EnergyProportionality(c)
	if err != nil {
		t.Fatal(err)
	}
	if ep <= 0 || ep >= 1 {
		t.Fatalf("EP = %v outside plausible range", ep)
	}
}

func TestEnergyProportionalityProperty(t *testing.T) {
	// EP ≤ 1 always, and adding idle power never raises EP.
	f := func(idle, peak uint16) bool {
		p := float64(peak%500) + 50
		i := math.Mod(float64(idle), p)
		c := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{i, p}}
		ep, err := EnergyProportionality(c)
		if err != nil {
			return false
		}
		if ep > 1+1e-12 {
			return false
		}
		c2 := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{i + 10, p}}
		ep2, err := EnergyProportionality(c2)
		if err != nil {
			return false
		}
		return ep2 <= ep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerCurveValidation(t *testing.T) {
	bad := []PowerCurve{
		{Loads: []float64{0}, PowerW: []float64{1}},
		{Loads: []float64{0, 1}, PowerW: []float64{1}},
		{Loads: []float64{0, 2}, PowerW: []float64{1, 2}},
		{Loads: []float64{0.5, 0.2}, PowerW: []float64{1, 2}},
		{Loads: []float64{0, 1}, PowerW: []float64{-1, 2}},
	}
	for i, c := range bad {
		if _, err := EnergyProportionality(c); err == nil {
			t.Errorf("case %d: bad curve accepted", i)
		}
	}
	zero := PowerCurve{Loads: []float64{0, 1}, PowerW: []float64{0, 0}}
	if _, err := EnergyProportionality(zero); err == nil {
		t.Error("zero-peak curve accepted")
	}
}

func TestTCOModel(t *testing.T) {
	p := DefaultTCO(20999, 500, 300)
	tco, err := p.MonthlyUSD()
	if err != nil {
		t.Fatal(err)
	}
	// capex (2500+20999)/36 ≈ 653, dc 500·10/120 ≈ 42, energy
	// 0.3·1.1·730·0.067 ≈ 16 → ≈ 711.
	if tco < 600 || tco > 800 {
		t.Fatalf("monthly TCO = %v, want ≈711", tco)
	}
	// More power → more cost.
	p2 := DefaultTCO(20999, 500, 450)
	tco2, _ := p2.MonthlyUSD()
	if tco2 <= tco {
		t.Fatal("higher draw must cost more")
	}
}

func TestTCOValidation(t *testing.T) {
	p := DefaultTCO(1000, 500, 100)
	p.AmortizationMonths = 0
	if _, err := p.MonthlyUSD(); err == nil {
		t.Fatal("zero amortization accepted")
	}
	p = DefaultTCO(1000, 500, 100)
	p.PUE = 0.5
	if _, err := p.MonthlyUSD(); err == nil {
		t.Fatal("PUE < 1 accepted")
	}
	p = DefaultTCO(1000, 500, -5)
	if _, err := p.MonthlyUSD(); err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestCostEfficiency(t *testing.T) {
	p := DefaultTCO(20999, 500, 300)
	ce, err := CostEfficiency(96, p)
	if err != nil {
		t.Fatal(err)
	}
	if ce <= 0 {
		t.Fatalf("cost efficiency = %v", ce)
	}
	// Same cost, higher throughput → better.
	ce2, _ := CostEfficiency(120, p)
	if ce2 <= ce {
		t.Fatal("throughput must raise cost efficiency")
	}
	if _, err := CostEfficiency(-1, p); err == nil {
		t.Fatal("negative throughput accepted")
	}
}

func TestViolationRatio(t *testing.T) {
	lats := []float64{100, 150, 250, 300}
	if got := ViolationRatio(lats, 200); got != 0.5 {
		t.Fatalf("ratio = %v", got)
	}
	if ViolationRatio(nil, 200) != 0 {
		t.Fatal("empty ratio must be 0")
	}
}
