package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"

	"poly/internal/sim"
)

// TestTraceStructure drives the recorder through one synthetic session —
// boards, kernel launches, a reconfiguration, a DVFS change, a governor
// transition, power samples, and a violation — then decodes the Chrome
// trace JSON and checks the shape Perfetto needs: named per-board
// threads and at least four distinct event categories.
func TestTraceStructure(t *testing.T) {
	r := New()
	r.BeginSession("ASR (bound 50 ms)")
	r.RegisterBoard("gpu0", "GPU")
	r.RegisterBoard("fpga0", "FPGA")

	r.PowerSample(0, 120)
	r.Launched("gpu0", "mfcc", "mfcc/gpu/b8", 8, 10, 16)
	r.ReconfigStart("fpga0", "hmm/fpga/v1", 12, 80, false)
	r.Launched("fpga0", "hmm", "hmm/fpga/v1", 1, 92, 110)
	r.DVFSChanged("gpu0", 2, 500)
	r.GovernorTransition(500, "nominal", "lowpower", "idle")
	sp := r.StartSpan(600, 50)
	sp.LatencyMS, sp.Measured, sp.Violation = 90, true, true
	r.FinishSpan(sp, 690)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	cats := map[string]bool{}
	threadNames := map[string]bool{}
	var sawKernelSlice, sawCounter bool
	for _, e := range doc.TraceEvents {
		if e.Cat != "" {
			cats[e.Cat] = true
		}
		if e.Name == "thread_name" && e.Phase == "M" {
			threadNames[e.Args["name"].(string)] = true
		}
		if e.Cat == "kernel" && e.Phase == "X" {
			sawKernelSlice = true
			if e.TS != 10_000 || e.Dur != 6_000 {
				// 10 ms → 10_000 µs: trace timestamps are µs of sim time.
				if e.TS != 92_000 {
					t.Fatalf("kernel slice at ts=%v dur=%v, want µs-scaled sim times", e.TS, e.Dur)
				}
			}
		}
		if e.Phase == "C" {
			sawCounter = true
		}
	}
	for _, want := range []string{"governor", "requests", "gpu0 (GPU)", "fpga0 (FPGA)"} {
		if !threadNames[want] {
			t.Fatalf("missing thread_name %q (have %v)", want, threadNames)
		}
	}
	for _, want := range []string{"kernel", "reconfig", "governor", "violation", "dvfs", "power"} {
		if !cats[want] {
			t.Fatalf("missing event category %q (have %v)", want, cats)
		}
	}
	if !sawKernelSlice || !sawCounter {
		t.Fatalf("missing slice (%v) or counter (%v) events", sawKernelSlice, sawCounter)
	}
}

// TestTraceBufferCap checks the buffer drops past its cap and counts the
// overflow instead of growing without bound.
func TestTraceBufferCap(t *testing.T) {
	r := NewWithOptions(Options{TraceEventCap: 3})
	r.BeginSession("s") // 3 metadata events fill the buffer
	r.PowerSample(0, 100)
	r.PowerSample(1, 101)
	if got := r.TraceEventCount(); got != 3 {
		t.Fatalf("buffered %d events, want 3", got)
	}
	if got := r.TraceDropped(); got != 2 {
		t.Fatalf("dropped %d events, want 2", got)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Registry().Counter("poly_trace_events_dropped_total", "").Value(); got != 2 {
		t.Fatalf("dropped counter = %v, want 2", got)
	}
}

// TestMetricsHandlerContentType checks the /metrics endpoint speaks the
// Prometheus text content type. The scrape is answered by the recorder's
// owner, this goroutine, at its next PowerSample; a scrape whose request
// is cancelled before the owner reaches one returns without a body.
func TestMetricsHandlerContentType(t *testing.T) {
	r := New()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		close(done)
	}()
	for at, answered := sim.Time(0), false; !answered; at++ {
		r.PowerSample(at, 100)
		select {
		case <-done:
			answered = true
		default:
			runtime.Gosched()
		}
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("# TYPE poly_requests_total counter")) {
		t.Fatal("metrics body missing poly_requests_total family")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(gone, httptest.NewRequest("GET", "/metrics", nil).WithContext(ctx))
	if gone.Body.Len() != 0 {
		t.Fatalf("cancelled scrape wrote %d bytes", gone.Body.Len())
	}
}
