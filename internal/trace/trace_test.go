package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSynthesizeDefaultShape(t *testing.T) {
	tr := Synthesize(SynthOptions{Seed: 1})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.DurationMS(); got != 24*3600_000 {
		t.Fatalf("duration = %v, want 24 h", got)
	}
	if len(tr.Util) != 24*60 {
		t.Fatalf("samples = %d, want 1440 minutes", len(tr.Util))
	}
	// Diurnal shape: daytime (10:00–21:00) mean well above the small
	// hours (02:00–05:00).
	day := meanBetween(tr, 10, 21)
	night := meanBetween(tr, 2, 5)
	if day < 1.5*night {
		t.Fatalf("no diurnal swing: day %v vs night %v", day, night)
	}
	if tr.Peak() <= day {
		t.Fatal("bursts should push the peak above the daytime mean")
	}
	if tr.Mean() < 0.1 || tr.Mean() > 0.9 {
		t.Fatalf("mean utilization = %v implausible", tr.Mean())
	}
}

func meanBetween(tr *Trace, fromHour, toHour float64) float64 {
	var s float64
	var n int
	for i, u := range tr.Util {
		h := float64(i) / 60
		if h >= fromHour && h < toHour {
			s += u
			n++
		}
	}
	return s / float64(n)
}

func TestSynthesizeDeterministicPerSeed(t *testing.T) {
	a := Synthesize(SynthOptions{Seed: 7})
	b := Synthesize(SynthOptions{Seed: 7})
	c := Synthesize(SynthOptions{Seed: 8})
	for i := range a.Util {
		if a.Util[i] != b.Util[i] {
			t.Fatal("same seed diverged")
		}
	}
	same := true
	for i := range a.Util {
		if a.Util[i] != c.Util[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestAtAndRate(t *testing.T) {
	tr := &Trace{StepMS: 1000, Util: []float64{0.1, 0.5, 0.9}}
	if tr.At(0) != 0.1 || tr.At(1500) != 0.5 || tr.At(99999) != 0.9 || tr.At(-5) != 0.1 {
		t.Fatal("At lookup/clamping wrong")
	}
	rate := tr.Rate(100)
	if rate(1500) != 50 {
		t.Fatalf("rate = %v, want 50", rate(1500))
	}
	var empty Trace
	if empty.At(0) != 0 || empty.Mean() != 0 || empty.Peak() != 0 {
		t.Fatal("empty trace must report zeros")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Trace{
		{StepMS: 0, Util: []float64{0.5}},
		{StepMS: 1000},
		{StepMS: 1000, Util: []float64{1.5}},
		{StepMS: 1000, Util: []float64{-0.1}},
		{StepMS: 1000, Util: []float64{math.NaN()}},
		{StepMS: math.NaN(), Util: []float64{0.5}},
		{StepMS: math.Inf(1), Util: []float64{0.5}},
	}
	for i, tr := range bad {
		if tr.Validate() == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	src := `# google cluster-style trace
0, 0.20
300, 0.45
600, 0.80
900, 0.65
`
	tr, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.StepMS != 300_000 {
		t.Fatalf("step = %v, want 300 s", tr.StepMS)
	}
	if len(tr.Util) != 4 || tr.Util[2] != 0.8 {
		t.Fatalf("utils = %v", tr.Util)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"one sample":  "0,0.5\n",
		"bad fields":  "0;0.5\n300;0.6\n",
		"bad ts":      "x,0.5\n300,0.6\n",
		"bad util":    "0,x\n300,0.6\n",
		"range":       "0,0.5\n300,1.7\n",
		"descending":  "300,0.5\n0,0.6\n",
		"uneven step": "0,0.1\n300,0.2\n500,0.3\n",
		// ParseFloat accepts these; no range check catches them.
		"nan util":      "0,NaN\n300,0.6\n",
		"nan ts":        "NaN,0.5\n300,0.6\n",
		"late nan ts":   "0,0.5\n300,0.6\nNaN,0.7\n",
		"inf ts":        "0,0.5\nInf,0.6\n",
		"neg inf ts":    "-Inf,0.5\n0,0.6\n",
		"inf util":      "0,0.5\n300,+Inf\n",
		"step overflow": "-1.7e308,0.5\n1.7e308,0.6\n",
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzLoad checks that Load never panics and that every trace it
// accepts validates, with a finite step and finite samples.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		tr, err := Load(bytes.NewReader(src))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		if math.IsNaN(tr.StepMS) || math.IsInf(tr.StepMS, 0) {
			t.Fatalf("accepted trace has step %v", tr.StepMS)
		}
		for i, u := range tr.Util {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("accepted trace has sample %d = %v", i, u)
			}
		}
	})
}
