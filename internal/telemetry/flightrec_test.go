package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"poly/internal/sim"
)

// TestFlightRingOverwritesOldest pins the ring's retention policy — the
// opposite of traceBuf's: full means the *oldest* entry goes, because a
// post-incident dump wants the most recent past.
func TestFlightRingOverwritesOldest(t *testing.T) {
	fr := newFlightRing(4)
	for i := 1; i <= 10; i++ {
		fr.add(traceEv{ts: float64(i)})
	}
	snap := fr.snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap))
	}
	for i, want := range []float64{7, 8, 9, 10} {
		if snap[i].ts != want {
			t.Fatalf("snapshot[%d].ts = %v, want %v (oldest-first order)", i, snap[i].ts, want)
		}
	}
	if got := fr.snapshot(9); len(got) != 2 || got[0].ts != 9 || got[1].ts != 10 {
		t.Fatalf("snapshot(since=9) = %v events, want ts 9,10", len(got))
	}
}

// decodeTrace parses a Chrome trace JSON dump back into events.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []TraceEvent {
	t.Helper()
	var out struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("flight dump is not valid trace JSON: %v", err)
	}
	return out.TraceEvents
}

// finishViolation pushes one measured span through the recorder with the
// given verdict at time at (ms).
func finishViolation(r *Recorder, at float64, violation bool) {
	sp := r.StartSpan(sim.Time(at-1), 10)
	sp.Measured = true
	sp.Violation = violation
	sp.LatencyMS = 1
	r.FinishSpan(sp, sim.Time(at))
}

// ms converts a test's millisecond literal to simulated time.
func ms(v float64) sim.Time { return sim.Time(v) }

// TestFlightFreezeAtFirstTrigger drives the whole incident protocol: the
// first *measured* violation freezes a snapshot of the preceding
// flightWindowMS (2 s); later triggers only count; warmup violations never
// trip; and the dump carries admit events that the main trace omits.
func TestFlightFreezeAtFirstTrigger(t *testing.T) {
	r := New()
	r.BeginSession("incident")
	r.RegisterBoard("gpu0", "GPU")

	// A warmup (unmeasured) violation is trace-visible but must not trip.
	sp := r.StartSpan(ms(100), 10)
	sp.Violation = true
	sp.LatencyMS = 50
	r.FinishSpan(sp, ms(120))
	if _, _, ok := r.FlightTriggered(); ok {
		t.Fatal("warmup violation tripped the flight recorder")
	}

	// Old activity that must age out of the frozen window.
	r.Launched("gpu0", "oldkernel", "impl", 1, ms(200), ms(400))
	// Activity inside the window.
	r.Launched("gpu0", "prelude", "impl", 1, ms(9200), ms(9400))
	finishViolation(r, 9600, false)

	finishViolation(r, 10000, true) // first measured violation: freeze [8000, 10000]
	cause, atMS, ok := r.FlightTriggered()
	if !ok || cause != "violation" || atMS != 10000 {
		t.Fatalf("FlightTriggered = (%q, %v, %v), want (violation, 10000, true)", cause, atMS, ok)
	}

	// Later triggers — another violation, a board going down — count but
	// must not move the frozen snapshot.
	finishViolation(r, 12000, true)
	r.BoardHealthChanged("gpu0", "suspect", "down", ms(14000))
	if cause, atMS, _ := r.FlightTriggered(); cause != "violation" || atMS != 10000 {
		t.Fatalf("snapshot moved to (%q, %v); first trigger must win", cause, atMS)
	}
	trips := r.Registry().Counter("poly_flight_triggers_total", "", "cause", "violation").Value()
	if trips != 2 {
		t.Fatalf("violation trips = %v, want 2", trips)
	}
	if down := r.Registry().Counter("poly_flight_triggers_total", "", "cause", "board_down").Value(); down != 1 {
		t.Fatalf("board_down trips = %v, want 1", down)
	}

	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)
	var sawPrelude, sawOld, sawAdmit, sawTrigger, sawLate bool
	for _, e := range evs {
		switch {
		case e.Name == "oldkernel":
			sawOld = true
		case e.Name == "prelude":
			sawPrelude = true
		case e.Name == "admit":
			sawAdmit = true
		case e.Name == "flight_trigger":
			sawTrigger = true
		case e.Phase != "M" && e.TS > 10000*1000:
			sawLate = true
		}
	}
	if !sawPrelude || !sawAdmit || !sawTrigger {
		t.Fatalf("frozen window missing events: prelude=%v admit=%v trigger=%v", sawPrelude, sawAdmit, sawTrigger)
	}
	if sawOld {
		t.Fatal("an event 9.6 s before the trigger survived a 2 s window")
	}
	if sawLate {
		t.Fatal("post-trigger event leaked into the frozen snapshot")
	}

	// Admissions are flight-only: the main trace must not carry them.
	buf.Reset()
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, &buf) {
		if e.Name == "admit" {
			t.Fatal("admit event leaked into the main trace buffer")
		}
	}
}

// TestFlightLiveTail covers the non-incident dump: a run with no trigger
// writes the ring's live tail.
func TestFlightLiveTail(t *testing.T) {
	r := NewWithOptions(Options{FlightRingCap: 8})
	r.BeginSession("quiet")
	r.RegisterBoard("gpu0", "GPU")
	for i := 0; i < 20; i++ {
		r.Launched("gpu0", "k", "impl", 1, ms(float64(i)), ms(float64(i)+0.5))
	}
	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, e := range decodeTrace(t, &buf) {
		if e.Name == "k" {
			kernels++
		}
	}
	if kernels != 8 {
		t.Fatalf("live tail kept %d kernel events, want the ring cap 8", kernels)
	}
}
