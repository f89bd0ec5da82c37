package cluster

import (
	"testing"

	"poly/internal/sim"
)

// TestProvisionReproducesTableIII checks every row of Table III.
func TestProvisionReproducesTableIII(t *testing.T) {
	cases := []struct {
		setting  Setting
		arch     Architecture
		wantGPU  int
		wantFPGA int
	}{
		{SettingI, HomoGPU, 2, 0},
		{SettingI, HomoFPGA, 0, 10},
		{SettingI, HeterPoly, 1, 5},
		{SettingII, HomoGPU, 2, 0},
		{SettingII, HomoFPGA, 0, 16},
		{SettingII, HeterPoly, 1, 8},
		{SettingIII, HomoGPU, 2, 0},
		{SettingIII, HomoFPGA, 0, 8},
		{SettingIII, HeterPoly, 1, 4},
	}
	for _, c := range cases {
		p, err := Provision(Config{Arch: c.arch, Setting: c.setting, PowerCapW: 500})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.setting.Name, c.arch, err)
		}
		if p.NumGPU != c.wantGPU || p.NumFPGA != c.wantFPGA {
			t.Errorf("%s/%s: got %dxGPU %dxFPGA, want %dxGPU %dxFPGA",
				c.setting.Name, c.arch, p.NumGPU, p.NumFPGA, c.wantGPU, c.wantFPGA)
		}
	}
}

// TestProvisionFig13Splits checks the 1000 W power-split sweep example
// from Section VI-D: an 80 %–20 % split in Setting-I yields 3 GPUs and
// 4 FPGAs.
func TestProvisionFig13Splits(t *testing.T) {
	p, err := Provision(Config{Arch: HeterPoly, Setting: SettingI, PowerCapW: 1000, GPUShare: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGPU != 3 || p.NumFPGA != 4 {
		t.Fatalf("80/20 split: got %dxGPU %dxFPGA, want 3/4", p.NumGPU, p.NumFPGA)
	}
}

func TestProvisionErrors(t *testing.T) {
	if _, err := Provision(Config{Arch: HomoGPU, Setting: SettingI, PowerCapW: 0}); err == nil {
		t.Fatal("zero cap accepted")
	}
	if _, err := Provision(Config{Arch: HomoGPU, Setting: SettingI, PowerCapW: 100}); err == nil {
		t.Fatal("cap below one board accepted")
	}
	if _, err := Provision(Config{Arch: Architecture(9), Setting: SettingI, PowerCapW: 500}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := Provision(Config{Arch: HeterPoly, Setting: SettingI, PowerCapW: 500, GPUShare: 1.5}); err == nil {
		t.Fatal("share > 1 accepted")
	}
}

func TestBuildNodeAndAggregates(t *testing.T) {
	p, err := Provision(Config{Arch: HeterPoly, Setting: SettingI, PowerCapW: 500})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	n := Build(s, p)
	if len(n.GPUs) != 1 || len(n.FPGAs) != 5 {
		t.Fatalf("built %d GPUs, %d FPGAs", len(n.GPUs), len(n.FPGAs))
	}
	if got := len(n.GPUs) + len(n.FPGAs); got != 6 {
		t.Fatalf("accelerators = %d", got)
	}
	// Idle draw = 1×42 + 5×8 = 82 W.
	if got := n.PowerW(); got != 82 {
		t.Fatalf("idle node power = %v, want 82", got)
	}
	if n.IdlePowerW() != 82 {
		t.Fatalf("IdlePowerW = %v", n.IdlePowerW())
	}
	if n.PeakPowerW() != 270+5*45 {
		t.Fatalf("PeakPowerW = %v", n.PeakPowerW())
	}
	if n.CapexUSD() != 4999+5*3200 {
		t.Fatalf("CapexUSD = %v", n.CapexUSD())
	}
	if n.EnergyMJ() != 0 {
		t.Fatalf("fresh node energy = %v", n.EnergyMJ())
	}
	// Idle energy accrues with time.
	s.At(1000, func() {})
	s.Run()
	if e := n.EnergyMJ(); e < 81000 || e > 83000 {
		t.Fatalf("idle energy after 1 s = %v mJ, want ≈82000", e)
	}
}

func TestArchitectureString(t *testing.T) {
	if HomoGPU.String() != "Homo-GPU" || HomoFPGA.String() != "Homo-FPGA" || HeterPoly.String() != "Heter-Poly" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(7).String() == "" {
		t.Fatal("unknown arch must format")
	}
	if len(Settings()) != 3 {
		t.Fatal("Settings() must return the three settings")
	}
}
