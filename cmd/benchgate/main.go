// Command benchgate is the CI benchmark-regression gate: it parses
// `go test -bench` output, compares each benchmark's best ns/op and
// allocs/op against a checked-in baseline, and exits nonzero when any
// metric regresses beyond the threshold.
//
// Usage:
//
//	go test -bench 'Schedule$|Serve(SteadyState|HighLoad|BatchedHighLoad|TelemetryOn)$' -benchmem -count 6 \
//	    ./internal/sched ./internal/runtime | tee bench.txt
//	go run ./cmd/benchgate -baseline BENCH_BASELINE.json bench.txt
//	go run ./cmd/benchgate -baseline BENCH_BASELINE.json -update bench.txt
//
// Beyond the absolute baseline, -ratio asserts a relative bound between
// two benchmarks measured in the *same* input — immune to runner speed:
//
//	go run ./cmd/benchgate -ratio 'BenchmarkServeTelemetryOn/BenchmarkServeSteadyState<=1.10' bench.txt
//
// Parsing rules: the trailing -N GOMAXPROCS suffix is stripped from
// benchmark names so baselines transfer across machine shapes, and with
// -count > 1 the minimum across runs is kept — the minimum is the
// least-noisy estimator of a benchmark's true cost on shared CI runners.
// Time regressions are judged on ns/op with a relative threshold
// (default 20 %); allocs/op and B/op are exact in Go benchmarks, so they
// use the same threshold but typically fail on any real regression.
// (B/op catches allocation-count-neutral regressions — fewer but much
// larger allocations — that allocs/op alone would wave through.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's baseline record.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Baseline is the checked-in BENCH_BASELINE.json shape.
type Baseline struct {
	// Note documents how to refresh the file.
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
	threshold := flag.Float64("threshold", 0.20, "allowed relative regression (0.20 = +20%)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	ratios := flag.String("ratio", "", "comma-separated ns/op ratio assertions between benchmarks in this input, e.g. 'BenchmarkA/BenchmarkB<=1.10'")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		fail(err)
	}
	if len(current) == 0 {
		fail(fmt.Errorf("no benchmark lines found in input"))
	}
	if *ratios != "" {
		if err := checkRatios(*ratios, current); err != nil {
			fail(err)
		}
	}

	if *update {
		b := Baseline{
			Note:       "refresh: go test -bench 'Schedule$|Serve(SteadyState|HighLoad|BatchedHighLoad|TelemetryOn)$|FleetServe$' -benchmem -count 6 -run '^$' ./internal/sched ./internal/runtime ./internal/fleet | go run ./cmd/benchgate -update",
			Benchmarks: current,
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fail(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fail(fmt.Errorf("%s: %w", *baselinePath, err))
	}

	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)

	regressed := false
	for _, name := range names {
		cur := current[name]
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW   %-50s %12.0f ns/op %8.0f allocs/op (no baseline; add with -update)\n",
				name, cur.NsPerOp, cur.AllocsPerOp)
			continue
		}
		nsBad := cur.NsPerOp > ref.NsPerOp*(1+*threshold)
		allocBad := cur.AllocsPerOp > ref.AllocsPerOp*(1+*threshold)
		// Old baselines without bytes_per_op (zero) don't gate B/op until
		// the next -update refresh.
		byteBad := ref.BytesPerOp > 0 && cur.BytesPerOp > ref.BytesPerOp*(1+*threshold)
		status := "ok   "
		if nsBad || allocBad || byteBad {
			status = "FAIL "
			regressed = true
		}
		fmt.Printf("%s %-50s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %8.0f -> %8.0f (%+6.1f%%)  B/op %10.0f -> %10.0f (%+6.1f%%)\n",
			status, name,
			ref.NsPerOp, cur.NsPerOp, delta(ref.NsPerOp, cur.NsPerOp),
			ref.AllocsPerOp, cur.AllocsPerOp, delta(ref.AllocsPerOp, cur.AllocsPerOp),
			ref.BytesPerOp, cur.BytesPerOp, delta(ref.BytesPerOp, cur.BytesPerOp))
	}
	for name := range base.Benchmarks {
		if _, ok := current[name]; !ok {
			fmt.Printf("GONE  %-50s in baseline but not in input\n", name)
		}
	}
	if regressed {
		fmt.Printf("benchgate: regression beyond +%.0f%% — if intentional, refresh %s (see its note)\n",
			100**threshold, *baselinePath)
		os.Exit(1)
	}
	fmt.Println("benchgate: all benchmarks within threshold")
}

// checkRatios evaluates 'Num/Den<=limit' assertions against the best
// ns/op of two benchmarks from the same run. Both sides share the
// machine and the noise of one invocation, so the bound holds (or
// fails) for the workload's real relative cost, not for runner speed.
func checkRatios(spec string, current map[string]Entry) error {
	for _, assert := range strings.Split(spec, ",") {
		assert = strings.TrimSpace(assert)
		if assert == "" {
			continue
		}
		names, limitStr, ok := strings.Cut(assert, "<=")
		if !ok {
			return fmt.Errorf("ratio %q: want 'Num/Den<=limit'", assert)
		}
		num, den, ok := strings.Cut(strings.TrimSpace(names), "/")
		if !ok {
			return fmt.Errorf("ratio %q: want 'Num/Den<=limit'", assert)
		}
		limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
		if err != nil || limit <= 0 {
			return fmt.Errorf("ratio %q: bad limit %q", assert, limitStr)
		}
		ne, ok := current[num]
		if !ok {
			return fmt.Errorf("ratio %q: %s not found in input", assert, num)
		}
		de, ok := current[den]
		if !ok {
			return fmt.Errorf("ratio %q: %s not found in input", assert, den)
		}
		if de.NsPerOp <= 0 {
			return fmt.Errorf("ratio %q: %s has non-positive ns/op", assert, den)
		}
		got := ne.NsPerOp / de.NsPerOp
		if got > limit {
			return fmt.Errorf("ratio %s/%s = %.3f exceeds limit %.3f (%.0f vs %.0f ns/op)",
				num, den, got, limit, ne.NsPerOp, de.NsPerOp)
		}
		fmt.Printf("ok    ratio %s/%s = %.3f <= %.3f\n", num, den, got, limit)
	}
	return nil
}

func delta(ref, cur float64) float64 {
	if ref == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (cur - ref) / ref
}

// parseBench extracts per-benchmark best ns/op and allocs/op from
// `go test -bench` output.
func parseBench(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		ns := math.NaN()
		allocs := math.NaN()
		bytes := math.NaN()
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			case "B/op":
				bytes = v
			}
		}
		if math.IsNaN(ns) {
			continue
		}
		if math.IsNaN(allocs) {
			allocs = 0
		}
		if math.IsNaN(bytes) {
			bytes = 0
		}
		e, seen := out[name]
		if !seen || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		if !seen || allocs < e.AllocsPerOp {
			e.AllocsPerOp = allocs
		}
		if !seen || bytes < e.BytesPerOp {
			e.BytesPerOp = bytes
		}
		out[name] = e
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names (BenchmarkSchedule/ASR-8 → BenchmarkSchedule/ASR).
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
