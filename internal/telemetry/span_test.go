package telemetry

import (
	"testing"

	"poly/internal/sim"
)

// TestSpanLifecycle drives one request span through the recorder the way
// the runtime does — admit, two kernels, finish — and checks the derived
// quantities and outcome accounting.
func TestSpanLifecycle(t *testing.T) {
	r := New()
	r.BeginSession("test")

	sp := r.StartSpan(100, 50) // arrived t=100 ms, bound 50 ms
	if sp.ID == 0 {
		t.Fatal("span id must be assigned")
	}
	k1 := sp.AddKernel("mfcc", "gpu0", "mfcc/gpu/b8", 100)
	k2 := sp.AddKernel("hmm", "fpga0", "hmm/fpga/v1", 100)
	k1.StartMS, k1.EndMS = 104, 110
	k2.StartMS, k2.EndMS = 112, 130
	if got := k1.QueueMS(); got != 4 {
		t.Fatalf("k1 queue = %v, want 4", got)
	}
	if got := k2.ServiceMS(); got != 18 {
		t.Fatalf("k2 service = %v, want 18", got)
	}
	if got := sp.AdmitWaitMS(); got != 4 {
		t.Fatalf("admit wait = %v, want 4 (earliest kernel start - arrival)", got)
	}

	sp.LatencyMS, sp.Measured, sp.Violation = 30, true, false
	r.FinishSpan(sp, 130)
	if got := r.Registry().Counter("poly_requests_total", "", "outcome", "ok").Value(); got != 1 {
		t.Fatalf("ok outcome count = %v, want 1", got)
	}
	if got := r.Registry().Histogram("poly_request_latency_ms", "").HistCount(); got != 1 {
		t.Fatalf("latency observations = %v, want 1", got)
	}
	if got := r.Registry().Counter("poly_kernel_execs_total", "",
		"device", "gpu0", "kernel", "mfcc").Value(); got != 1 {
		t.Fatalf("kernel exec count = %v, want 1", got)
	}

	// A violating span: counted under its own outcome and marked on the
	// trace as a violation instant.
	sp2 := r.StartSpan(200, 50)
	sp2.LatencyMS, sp2.Measured, sp2.Violation = 80, true, true
	r.FinishSpan(sp2, 280)
	if got := r.Registry().Counter("poly_requests_total", "", "outcome", "violation").Value(); got != 1 {
		t.Fatalf("violation outcome count = %v, want 1", got)
	}

	// A dropped span: its own outcome, no latency observation, and its
	// kernels stay out of the per-device histograms.
	sp3 := r.StartSpan(300, 50)
	sp3.AddKernel("mfcc", "ghost0", "mfcc/gpu/b8", 300)
	sp3.Dropped = true
	r.FinishSpan(sp3, 300)
	if got := r.Registry().Counter("poly_requests_total", "", "outcome", "dropped").Value(); got != 1 {
		t.Fatalf("dropped outcome count = %v, want 1", got)
	}
	if got := r.Registry().Histogram("poly_request_latency_ms", "").HistCount(); got != 2 {
		t.Fatalf("latency observations = %v, want 2 (dropped span excluded)", got)
	}
	if got := r.Registry().Histogram("poly_kernel_queue_ms", "", "device", "ghost0").HistCount(); got != 0 {
		t.Fatalf("dropped span's kernels leaked into histograms (%v observations)", got)
	}

	if got := r.SpanTotal(); got != 3 {
		t.Fatalf("span total = %d, want 3", got)
	}
	spans := r.Spans()
	if len(spans) != 3 || spans[0].ID != sp.ID || spans[2].ID != sp3.ID {
		t.Fatalf("ring snapshot out of order: %v", spans)
	}
}

// TestSpanRingBounded checks the ring keeps only the newest cap spans,
// oldest first in snapshots, while Total still counts everything.
func TestSpanRingBounded(t *testing.T) {
	ring := NewSpanRing(4)
	for i := 1; i <= 10; i++ {
		ring.PushEvict(&Span{ID: uint64(i)})
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d, want 10", ring.Total())
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, sp := range got {
		if want := uint64(7 + i); sp.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

// TestRecorderSpanRingCap checks the recorder honors Options.SpanRingCap.
func TestRecorderSpanRingCap(t *testing.T) {
	r := NewWithOptions(Options{SpanRingCap: 2})
	for i := 0; i < 5; i++ {
		sp := r.StartSpan(sim.Time(i), 10)
		sp.Measured = true
		r.FinishSpan(sp, sim.Time(i+1))
	}
	if got := len(r.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if r.SpanTotal() != 5 {
		t.Fatalf("total = %d, want 5", r.SpanTotal())
	}
}
