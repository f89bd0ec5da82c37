package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"poly/internal/device"
	"poly/internal/runtime"
	"poly/internal/sched"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
	}{{1000, 10}, {999, 9}, {1099, 10}, {1100, 11}, {0, 0}} {
		if got := tailBeyond(tc.n, 99); got != tc.beyond {
			t.Errorf("tailBeyond(%d, 99) = %d, want %d", tc.n, got, tc.beyond)
		}
	}
	// check refuses a p99 with fewer than ten samples beyond it.
	for _, tc := range []struct {
		measured int
		ok       bool
	}{{999, false}, {1000, true}} {
		o := outcome{offered: tc.measured, results: []runtime.Result{
			{Arrivals: tc.measured, Completed: tc.measured, Measured: tc.measured}}}
		if err := o.check(); (err == nil) != tc.ok {
			t.Errorf("%d measured: check() = %v, want ok=%v", tc.measured, err, tc.ok)
		}
	}
}

func TestFailedFracCountsEveryLoss(t *testing.T) {
	for _, tc := range []struct {
		name      string
		r         runtime.Result
		fleetShed int
		want      float64
	}{
		{"none", runtime.Result{}, 0, 0},
		{"shed", runtime.Result{Shed: 3}, 0, 0.03},
		{"plan errors", runtime.Result{PlanErrors: 4}, 0, 0.04},
		{"failed requests", runtime.Result{FailedRequests: 5}, 0, 0.05},
		{"fleet shed", runtime.Result{}, 6, 0.06},
		{"all", runtime.Result{Shed: 1, PlanErrors: 2, FailedRequests: 3}, 4, 0.10},
	} {
		o := outcome{offered: 100, fleetShed: tc.fleetShed, results: []runtime.Result{tc.r}}
		if got := o.failedFrac(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: failedFrac = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Lost requests also count as QoS violations.
	o := outcome{offered: 100, results: []runtime.Result{{Measured: 95, Violations: 5, Shed: 5}}}
	if got := o.qosViolFrac(); got != 0.1 {
		t.Errorf("qosViolFrac(5 violations, 95 measured, 5 shed) = %v, want 0.1", got)
	}
}

func TestCheckConservation(t *testing.T) {
	ok := runtime.Result{Arrivals: 1100, Completed: 1090, Shed: 4, PlanErrors: 3, FailedRequests: 3, Measured: 1000}
	node := outcome{offered: 1100, results: []runtime.Result{ok}}
	if err := node.check(); err != nil {
		t.Fatalf("balanced node: %v", err)
	}
	bad := ok
	bad.Completed--
	node.results[0] = bad
	if err := node.check(); err == nil {
		t.Error("node losing a request passed the check")
	}
	fleet := outcome{offered: 2205, fleet: true, fleetShed: 5,
		results: []runtime.Result{ok, ok}, placements: []int{1100, 1100}}
	if err := fleet.check(); err != nil {
		t.Fatalf("balanced fleet: %v", err)
	}
	fleet.offered++
	if err := fleet.check(); err == nil {
		t.Error("fleet losing an arrival passed the check")
	}
}

func TestFingerprint(t *testing.T) {
	base := func() outcome {
		return outcome{
			offered: 3,
			results: []runtime.Result{{Arrivals: 3, Completed: 3, Measured: 2, EnergyMJ: 12.5,
				DurationMS: 1000, CacheHits: 2}},
			latencies: []float64{50.25, 51.125},
			fired:     40,
		}
	}
	a, b := base(), base()
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("equal outcomes hash differently")
	}
	// Host-side counters stay out of the fingerprint.
	b.fired = 41
	b.results[0].CacheHits = 0
	if a.fingerprint() != b.fingerprint() {
		t.Error("host-side counters changed the fingerprint")
	}
	for name, mutate := range map[string]func(o *outcome){
		"latency ulp": func(o *outcome) { o.latencies[1] = math.Nextafter(o.latencies[1], 100) },
		"energy":      func(o *outcome) { o.results[0].EnergyMJ = 12.5000001 },
		"shed":        func(o *outcome) { o.results[0].Shed = 1 },
		"placements":  func(o *outcome) { o.placements = []int{3} },
	} {
		c := base()
		mutate(&c)
		if c.fingerprint() == a.fingerprint() {
			t.Errorf("%s: changed outcome kept the fingerprint", name)
		}
	}
}

// tracesText is `go tool pprof -traces` output trimmed to four samples.
const tracesText = `File: perfbench
Type: cpu
Duration: 2.13s, Total samples = 60ms (2.82%)
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             poly/internal/sched.(*Scheduler).scheduleCold
             poly/internal/sched.(*Scheduler).Schedule
             poly/internal/runtime.(*Server).admit
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   time.Since
             main.(*timedSink).since
             main.(*timedSink).BusyChanged
             poly/internal/device.(*accelBase).notifyBusy (inline)
             poly/internal/device.fireFPGATaskDone
             poly/internal/sim.(*Simulator).Step
-----------+-------------------------------------------------------
      10ms   poly/internal/sim.(*Simulator).siftDown
             poly/internal/sim.(*Simulator).Step
-----------+-------------------------------------------------------
`

func TestAttribute(t *testing.T) {
	got, err := attribute(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sched": 0.5, "go": 1.0 / 6, "device": 1.0 / 6, "sim": 1.0 / 6}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, got[k], v)
		}
	}
	if _, err := attribute("File: perfbench\n"); err == nil {
		t.Error("a profile with no samples was accepted")
	}
}

func TestMergedHistogram(t *testing.T) {
	text := `# TYPE poly_stage_latency_ms histogram
poly_stage_latency_ms_bucket{le="10",stage="queue"} 50
poly_stage_latency_ms_bucket{le="20",stage="queue"} 100
poly_stage_latency_ms_bucket{le="+Inf",stage="queue"} 100
poly_stage_latency_ms_sum{stage="queue"} 1000
poly_stage_latency_ms_count{stage="queue"} 100
`
	h := &histogram{cum: map[float64]float64{}}
	for i := 0; i < 2; i++ { // two recorders with the same contents
		ss, err := parseExposition(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			if err := h.add(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := h.mean(); m != 10 {
		t.Errorf("mean = %v, want 10", m)
	}
	if q := h.quantile(0.5); q != 10 {
		t.Errorf("p50 = %v, want 10", q)
	}
	if q := h.quantile(0.75); q != 15 {
		t.Errorf("p75 = %v, want 15", q)
	}
}

// TestReplayStatesDrawSampledOffsets checks that replayed device states
// take every board's queue offset from one sampled vector, in board
// order, and keep zero offsets when nothing was sampled.
func TestReplayStatesDrawSampledOffsets(t *testing.T) {
	sh := nodeShape{boards: []sched.DeviceState{
		{Name: "gpu0", Class: device.GPU}, {Name: "fpga0", Class: device.FPGA}}}
	rng := rand.New(rand.NewSource(1))
	for _, d := range sh.states(rng, nil) {
		if d.FreeAtMS != 0 {
			t.Fatalf("no samples: %s offset %v, want 0", d.Name, d.FreeAtMS)
		}
	}
	offsets := [][]float64{{1, 2}, {30, 40}}
	seen := map[float64]bool{}
	for range 50 {
		st := sh.states(rng, offsets)
		if st[0].Name != "gpu0" || st[1].Name != "fpga0" {
			t.Fatalf("boards reordered: %v", st)
		}
		if st[1].FreeAtMS != 2*st[0].FreeAtMS && st[1].FreeAtMS != st[0].FreeAtMS+10 {
			t.Fatalf("offsets %v, %v mix sampled vectors", st[0].FreeAtMS, st[1].FreeAtMS)
		}
		seen[st[0].FreeAtMS] = true
	}
	if !seen[1] || !seen[30] {
		t.Errorf("50 draws used only %v of the two vectors", seen)
	}
	if sh.boards[0].FreeAtMS != 0 {
		t.Error("states modified the shape's boards")
	}
}

func TestStatTicks(t *testing.T) {
	const stat = "cpu  554108 7 42160 902460 295 0 16264 89453 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	busy, steal, ok := statTicks(stat)
	if !ok || busy != 554108+7+42160+16264 || steal != 89453 {
		t.Errorf("statTicks = %v, %v, %v; want %v, 89453, true", busy, steal, ok, 554108+7+42160+16264)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, ok := statTicks(bad); ok {
			t.Errorf("statTicks(%q) accepted", bad)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	rs := repStats{out: outcome{results: []runtime.Result{{Completed: 1}}}, completed: 1}
	// A run makes at least minReps untraced repetitions.
	rep := &report{reps: []repStats{rs, rs, rs}, tracedReps: []repStats{rs}, setups: []setupTimes{{}}}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	specNames := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(rep.endToEnd()), specNames(spec.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	if got, want := names(rep.perLayer()), specNames(spec.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(ws, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", have, ws)
	}
}
