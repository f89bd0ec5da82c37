package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildExpositionRecorder drives one deterministic event of every kind
// through a full Recorder, so the exposition exercises every family the
// package exports: request outcomes, stage breakdowns, resource triples,
// SLO burn gauges, flight triggers, and the per-board device series.
func buildExpositionRecorder() *Recorder {
	r := New()
	r.BeginSession("golden")
	r.RegisterBoard("gpu0", "GPU")
	r.RegisterBoard("fpga0", "FPGA")
	r.RegisterNodeResource(ResComputeSlots, 2)
	r.RegisterNodeResource(ResPowerW, 300)
	r.RegisterNodeResource(ResFPGARegions, 1)
	r.RegisterBoardResource("gpu0", ResComputeSlots, 1)
	r.RegisterBoardResource("gpu0", ResPowerW, 200)
	r.RegisterBoardResource("fpga0", ResComputeSlots, 1)
	r.RegisterBoardResource("fpga0", ResPowerW, 100)
	r.RegisterBoardResource("fpga0", ResFPGARegions, 1)

	r.BusyChanged("gpu0", 1, 1)
	r.PowerChanged("gpu0", 150, 1)
	r.PowerChanged("fpga0", 30, 1)
	r.BitstreamResident("fpga0", "fft.v1", 2)
	r.PowerSample(2, 180)
	r.Launched("gpu0", "mfcc", "mfcc.cuda", 2, 3, 5)
	r.Launched("fpga0", "fft", "fft.v1", 1, 4, 9)
	r.ReconfigStart("fpga0", "fft.v1", 4, 10, false)
	r.DVFSChanged("gpu0", 2, 5)
	r.GovernorTransition(6, "nominal", "boost", "latency_pressure")
	r.TaskRetry("gpu0", "mfcc", 7)
	r.BoardHealthChanged("gpu0", "healthy", "suspect", 8)
	r.PlanUpdate(true, 0)
	r.PlanUpdate(false, 2)
	r.PlanError(9)
	r.RequestShed(9)
	r.BatchFlush(10, 3, 1.5, "full")

	finish := func(arrive, latency float64, measured, violation bool) {
		sp := r.StartSpan(ms(arrive), 50)
		k := sp.AddKernel("mfcc", "gpu0", "mfcc.cuda", arrive)
		k.StartMS, k.EndMS = arrive+1, arrive+4
		sp.AddTransfer(arrive+4, arrive+5)
		sp.Measured = measured
		sp.Violation = violation
		sp.LatencyMS = latency
		r.FinishSpan(sp, ms(arrive+latency))
	}
	finish(10, 15, false, false) // warmup
	finish(30, 20, true, false)  // ok
	finish(50, 60, true, true)   // measured violation: trips the flight recorder
	return r
}

// TestExpositionGolden pins the full recorder's /metrics output byte for
// byte — including the resource gauge triples, the SLO burn families,
// and the stage breakdown — against testdata/exposition_golden.txt.
// Regenerate with `go test ./internal/telemetry -run ExpositionGolden -update`.
func TestExpositionGolden(t *testing.T) {
	r := buildExpositionRecorder()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	for _, fam := range []string{
		"poly_node_allocated", "poly_node_allocatable", "poly_node_utilization_ratio",
		"poly_board_allocated", "poly_board_allocatable", "poly_board_utilization_ratio",
		"poly_slo_burn_rate", "poly_slo_violation_ratio", "poly_slo_burn_alert",
		"poly_slo_burn_trips_total", "poly_flight_triggers_total",
		"poly_stage_latency_ms",
	} {
		if !strings.Contains(buf.String(), "# TYPE "+fam+" ") {
			t.Errorf("exposition is missing family %s", fam)
		}
	}
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z_0-9:]*$`)

// TestExpositionFormat is a promlint-style validation of the text
// exposition (format 0.0.4): it parses the output structurally rather
// than byte-comparing, so it holds for any event mix — naming rules,
// HELP/TYPE placement, histogram bucket monotonicity, series uniqueness,
// and [0,1] bounds on the ratio gauges.
func TestExpositionFormat(t *testing.T) {
	r := buildExpositionRecorder()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	type histState struct {
		lastCum  float64
		lastLe   float64
		sawInf   bool
		infCum   float64
		count    float64
		sawCount bool
	}
	var (
		curFamily   string
		curKind     string
		pendingHelp string
		families    = map[string]bool{}
		series      = map[string]bool{}
		hists       = map[string]*histState{}
	)
	lineNo := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		fatal := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d: %s\n  %s", lineNo, fmt.Sprintf(format, args...), line)
		}
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, _, _ := strings.Cut(name, " ")
			if pendingHelp != "" {
				fatal("HELP %s not followed by its TYPE", pendingHelp)
			}
			pendingHelp = fam
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, kind, found := strings.Cut(rest, " ")
			if !found {
				fatal("TYPE line without a kind")
			}
			if pendingHelp != "" && pendingHelp != fam {
				fatal("HELP %s followed by TYPE %s", pendingHelp, fam)
			}
			pendingHelp = ""
			if families[fam] {
				fatal("family %s declared twice", fam)
			}
			families[fam] = true
			if !metricNameRe.MatchString(fam) {
				fatal("invalid metric name %q", fam)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				fatal("unknown TYPE kind %q", kind)
			}
			if kind == "counter" && !strings.HasSuffix(fam, "_total") {
				fatal("counter family %s does not end in _total", fam)
			}
			if kind != "counter" && strings.HasSuffix(fam, "_total") {
				fatal("non-counter family %s ends in _total", fam)
			}
			curFamily, curKind = fam, kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			fatal("unknown comment form")
		}
		if pendingHelp != "" {
			fatal("sample before the TYPE of %s", pendingHelp)
		}

		// Sample line: name{labels} value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			fatal("malformed sample")
		}
		name := line[:nameEnd]
		rest := line[nameEnd:]
		labels := ""
		if rest[0] == '{' {
			end := strings.IndexByte(rest, '}')
			if end < 0 {
				fatal("unterminated label set")
			}
			labels = rest[:end+1]
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			fatal("unparseable value %q: %v", valStr, err)
		}
		if !metricNameRe.MatchString(name) {
			fatal("invalid sample name %q", name)
		}
		if curFamily == "" {
			fatal("sample before any TYPE declaration")
		}
		key := name + labels
		if series[key] {
			fatal("duplicate series %s", key)
		}
		series[key] = true

		switch curKind {
		case "counter", "gauge":
			if name != curFamily {
				fatal("sample %s under family %s", name, curFamily)
			}
			if curKind == "counter" && val < 0 {
				fatal("negative counter value %v", val)
			}
			if strings.HasSuffix(name, "_ratio") && (val < 0 || val > 1) {
				fatal("ratio gauge out of [0,1]: %v", val)
			}
		case "histogram":
			base, suffix := name, ""
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(name, s); ok {
					base, suffix = b, s
					break
				}
			}
			if base != curFamily || suffix == "" {
				fatal("sample %s under histogram family %s", name, curFamily)
			}
			// Histogram series identity is the label set minus `le`.
			id := base + stripLe(t, labels)
			h := hists[id]
			if h == nil {
				h = &histState{lastLe: -1}
				hists[id] = h
			}
			switch suffix {
			case "_bucket":
				leStr := extractLe(t, labels)
				if leStr == "" {
					fatal("bucket without le label")
				}
				le := parseLe(t, leStr)
				if h.sawInf {
					fatal("bucket after +Inf")
				}
				if le <= h.lastLe {
					fatal("le bounds not increasing (%v after %v)", le, h.lastLe)
				}
				if val < h.lastCum {
					fatal("bucket counts not cumulative (%v after %v)", val, h.lastCum)
				}
				h.lastLe, h.lastCum = le, val
				if leStr == "+Inf" {
					h.sawInf = true
					h.infCum = val
				}
			case "_count":
				h.count = val
				h.sawCount = true
			}
		}
	}
	for id, h := range hists {
		if !h.sawInf {
			t.Errorf("histogram %s has no +Inf bucket", id)
		}
		if !h.sawCount {
			t.Errorf("histogram %s has no _count", id)
		} else if h.count != h.infCum {
			t.Errorf("histogram %s: _count %v != +Inf bucket %v", id, h.count, h.infCum)
		}
	}
}

// stripLe removes the le pair from a rendered label set, leaving the
// series identity shared by a histogram's buckets, sum, and count.
func stripLe(t *testing.T, labels string) string {
	t.Helper()
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range strings.Split(inner, ",") {
		if !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

func extractLe(t *testing.T, labels string) string {
	t.Helper()
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, pair := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(pair, `le="`); ok {
			return strings.TrimSuffix(v, `"`)
		}
	}
	return ""
}

func parseLe(t *testing.T, s string) float64 {
	t.Helper()
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable le bound %q", s)
	}
	return v
}
