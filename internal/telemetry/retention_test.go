package telemetry

import (
	"bytes"
	"testing"
)

// script drives one session through every event kind that reaches the
// trace buffer or the flight ring, including both flight triggers.
func script(r *Recorder) {
	r.BeginSession("retention")
	r.RegisterBoard("gpu0", "GPU")
	r.RegisterBoard("fpga0", "FPGA")
	for i := 0; i < 40; i++ {
		at := float64(10 * i)
		r.Launched("gpu0", "fft", "fft_gpu", 2, ms(at), ms(at+3))
		r.ReconfigStart("fpga0", "fft_fpga", ms(at+1), 2, i%2 == 0)
		r.PowerSample(ms(at), 100+float64(i))
		r.BatchFlush(ms(at), 2, 0.5, "full")
		finishViolation(r, at+5, i%7 == 3)
	}
	r.DVFSChanged("gpu0", 2, ms(400))
	r.GovernorTransition(ms(410), "eff", "perf", "burn")
	r.TaskRetry("gpu0", "fft", ms(420))
	r.RequestShed(ms(430))
	r.PlanError(ms(440))
	r.BoardHealthChanged("gpu0", "suspect", "down", ms(450))
}

// TestRecorderRetention pins the retention contract of the negative
// caps. A recorder that keeps no trace stores and drops nothing; one
// that keeps no flight ring still counts and reports its triggers; the
// exposition is byte-identical whatever the recorder keeps; and a write
// of what was not kept is an error, not an empty file. What is kept is
// byte-identical to a full recorder's.
func TestRecorderRetention(t *testing.T) {
	full := New()
	script(full)
	var wantProm, wantTrace, wantFlight bytes.Buffer
	if err := full.WritePrometheus(&wantProm); err != nil {
		t.Fatal(err)
	}
	if err := full.WriteTrace(&wantTrace); err != nil {
		t.Fatal(err)
	}
	if err := full.WriteFlight(&wantFlight); err != nil {
		t.Fatal(err)
	}
	wantCause, wantAt, ok := full.FlightTriggered()
	if !ok || full.TraceEventCount() == 0 {
		t.Fatalf("full recorder: trigger %v, %d trace events; the script exercises neither", ok, full.TraceEventCount())
	}

	for _, c := range []struct {
		name                string
		opts                Options
		keepTrace, keepRing bool
	}{
		{"keep none", Options{TraceEventCap: -1, FlightRingCap: -1}, false, false},
		{"trace only", Options{FlightRingCap: -1}, true, false},
		{"flight only", Options{TraceEventCap: -1}, false, true},
	} {
		r := NewWithOptions(c.opts)
		script(r)
		var prom bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if prom.String() != wantProm.String() {
			t.Fatalf("%s: exposition differs from a full recorder's", c.name)
		}
		if cause, at, ok := r.FlightTriggered(); !ok || cause != wantCause || at != wantAt {
			t.Fatalf("%s: FlightTriggered = (%q, %v, %v), want (%q, %v, true)", c.name, cause, at, ok, wantCause, wantAt)
		}
		var tr, fl bytes.Buffer
		terr, ferr := r.WriteTrace(&tr), r.WriteFlight(&fl)
		if c.keepTrace {
			if terr != nil || tr.String() != wantTrace.String() {
				t.Fatalf("%s: kept trace differs from a full recorder's (err %v)", c.name, terr)
			}
		} else {
			if terr == nil || tr.Len() != 0 {
				t.Fatalf("%s: WriteTrace wrote %d bytes, err %v; want an error and nothing written", c.name, tr.Len(), terr)
			}
			if r.TraceEventCount() != 0 || r.TraceDropped() != 0 {
				t.Fatalf("%s: %d trace events kept, %d dropped; want 0 and 0", c.name, r.TraceEventCount(), r.TraceDropped())
			}
		}
		if c.keepRing {
			if ferr != nil || fl.String() != wantFlight.String() {
				t.Fatalf("%s: kept flight dump differs from a full recorder's (err %v)", c.name, ferr)
			}
		} else if ferr == nil || fl.Len() != 0 || len(r.flight.buf) != 0 {
			t.Fatalf("%s: WriteFlight wrote %d bytes, err %v, ring holds %d; want an error, nothing written, nothing held",
				c.name, fl.Len(), ferr, len(r.flight.buf))
		}
	}
}

// TestKeepNoneRecordingAllocs checks that a recorder keeping neither
// trace nor flight ring allocates nothing on its hot paths from the
// very first call, where a full recorder allocates its first trace
// chunk and ring slot. Each measured call runs on a fresh recorder whose
// board series, event strings and one recycled span exist already (a
// session resolves those once at registration, first launch and first
// ring eviction), so what is measured is the trace and flight storage.
// The span is an unmeasured violation: it emits a trace instant without
// growing the stage-latency populations.
func TestKeepNoneRecordingAllocs(t *testing.T) {
	const runs = 20
	firstCalls := func(o Options) float64 {
		recs := make([]*Recorder, runs+1) // +1 for AllocsPerRun's warm-up call
		for i := range recs {
			r := NewWithOptions(o)
			r.board("gpu0", "GPU")
			r.tab.id("fft")
			r.tab.id("fft_gpu")
			r.spanFree = append(r.spanFree, &Span{})
			recs[i] = r
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			r := recs[next]
			next++
			r.Launched("gpu0", "fft", "fft_gpu", 1, ms(0), ms(2))
			r.PowerSample(ms(2), 100)
			sp := r.StartSpan(ms(3), 10)
			sp.Violation = true
			sp.LatencyMS = 20
			r.FinishSpan(sp, ms(23))
		})
	}
	if n := firstCalls(Options{TraceEventCap: -1, FlightRingCap: -1}); n != 0 {
		t.Fatalf("keep-none recorder: first calls allocate %v times, want 0", n)
	}
	if n := firstCalls(Options{}); n == 0 {
		t.Fatal("full recorder: first calls allocated nothing; the measurement does not reach the trace buffer")
	}
}
