package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"poly/internal/telemetry"
)

func TestValidate(t *testing.T) {
	const sec = time.Second
	base := cliFlags{rps: 40, duration: 20 * sec, nodes: 1}
	with := func(edit func(*cliFlags)) cliFlags {
		f := base
		edit(&f)
		return f
	}
	for _, c := range []struct {
		name  string
		flags cliFlags
		ok    bool
	}{
		{"defaults", base, true},
		{"zero rps", with(func(f *cliFlags) { f.rps = 0 }), true},
		{"fleet with batching", with(func(f *cliFlags) { f.rps, f.duration, f.nodes, f.batchWait, f.batchCap = 160, 10*sec, 4, 4, 8 }), true},
		{"batch-wait alone", with(func(f *cliFlags) { f.batchWait = 4 }), true},
		{"NaN rps", with(func(f *cliFlags) { f.rps = math.NaN() }), false},
		{"+Inf rps", with(func(f *cliFlags) { f.rps = math.Inf(1) }), false},
		{"-Inf rps", with(func(f *cliFlags) { f.rps = math.Inf(-1) }), false},
		{"negative rps", with(func(f *cliFlags) { f.rps = -1 }), false},
		{"zero duration", with(func(f *cliFlags) { f.duration = 0 }), false},
		{"negative duration", with(func(f *cliFlags) { f.duration = -sec }), false},
		{"zero nodes", with(func(f *cliFlags) { f.nodes = 0 }), false},
		{"negative nodes", with(func(f *cliFlags) { f.nodes = -3 }), false},
		{"negative batch-wait", with(func(f *cliFlags) { f.batchWait = -1 }), false},
		{"NaN batch-wait", with(func(f *cliFlags) { f.batchWait = math.NaN() }), false},
		{"negative batch", with(func(f *cliFlags) { f.batchWait, f.batchCap = 4, -1 }), false},
		{"batch without batch-wait", with(func(f *cliFlags) { f.batchCap = 8 }), false},
		{"telemetry with pprof", with(func(f *cliFlags) { f.telemetry, f.pprof = true, "localhost:6060" }), true},
		{"fleet telemetry with pprof", with(func(f *cliFlags) { f.nodes, f.telemetry, f.pprof = 2, true, "localhost:6060" }), true},
		{"trace-out implies telemetry", with(func(f *cliFlags) { f.traceOut = "t.json" }), true},
		{"flight-out implies telemetry", with(func(f *cliFlags) { f.flightOut = "f.json" }), true},
		{"telemetry with trace-out", with(func(f *cliFlags) { f.telemetry, f.traceOut = true, "t.json" }), true},
		{"telemetry alone", with(func(f *cliFlags) { f.telemetry = true }), false},
		{"fleet telemetry alone", with(func(f *cliFlags) { f.nodes, f.telemetry = 2, true }), false},
		{"fleet trace-out", with(func(f *cliFlags) { f.nodes, f.traceOut = 2, "t.json" }), false},
		{"fleet flight-out", with(func(f *cliFlags) { f.nodes, f.flightOut = 2, "f.json" }), false},
	} {
		err := validate(c.flags)
		if (err == nil) != c.ok {
			t.Errorf("%s: validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := validate(with(func(f *cliFlags) { f.telemetry = true })); err == nil || !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("-telemetry alone: error %v does not name -pprof", err)
	}
}

// TestRecorderOptions pins which stores each flag combination keeps: a
// trace only for -trace-out, a flight ring only for -flight-out, and
// neither for a recorder that only answers the live /metrics scrape
// (-telemetry -pprof). A kept store takes its default cap (0).
func TestRecorderOptions(t *testing.T) {
	for _, c := range []struct {
		name                string
		traceOut, flightOut string
		wantTrace, wantRing int
	}{
		{"telemetry -pprof alone", "", "", -1, -1},
		{"trace-out", "t.json", "", 0, -1},
		{"flight-out", "", "f.json", -1, 0},
		{"trace-out and flight-out", "t.json", "f.json", 0, 0},
	} {
		want := telemetry.Options{TraceEventCap: c.wantTrace, FlightRingCap: c.wantRing}
		if o := recorderOptions(c.traceOut, c.flightOut); o != want {
			t.Errorf("%s: options %+v, want %+v", c.name, o, want)
		}
	}
}
