package telemetry

import (
	"errors"
	"io"

	"poly/internal/sim"
)

// flightRing is the flight recorder's event store: a bounded ring of
// compact trace events that overwrites its oldest entry when full — the
// opposite policy from traceBuf, which keeps the oldest and drops the
// newest. The trace buffer answers "what happened from the start?"; the
// flight ring answers "what just happened?", which is what a
// post-incident dump needs. Steady-state recording is allocation-free
// once the ring has grown to its cap; a ring of cap 0 keeps nothing and
// never allocates.
type flightRing struct {
	buf  []traceEv
	cap  int
	next int // overwrite cursor, valid once len(buf) == cap
}

// newFlightRing builds a ring of cap events; a negative cap keeps none.
func newFlightRing(cap int) *flightRing {
	return &flightRing{cap: max(cap, 0)}
}

func (fr *flightRing) add(e traceEv) {
	if len(fr.buf) < fr.cap {
		fr.buf = append(fr.buf, e)
		return
	}
	if fr.cap == 0 {
		return
	}
	fr.buf[fr.next] = e
	fr.next++
	if fr.next == fr.cap {
		fr.next = 0
	}
}

// snapshot copies the retained events, oldest first, keeping only those
// at or after sinceUS (trace-microsecond timestamps).
func (fr *flightRing) snapshot(sinceUS float64) []traceEv {
	out := make([]traceEv, 0, len(fr.buf))
	appendFrom := func(evs []traceEv) {
		for i := range evs {
			if evs[i].ts >= sinceUS {
				out = append(out, evs[i])
			}
		}
	}
	if len(fr.buf) == fr.cap {
		appendFrom(fr.buf[fr.next:])
		appendFrom(fr.buf[:fr.next])
	} else {
		appendFrom(fr.buf)
	}
	return out
}

// flightSnapshot is the frozen dump captured at the first trigger.
type flightSnapshot struct {
	cause  string
	atMS   float64
	events []traceEv
}

// flightTrip fires the flight recorder: counts the trigger, drops
// a trace instant, and — on the first trigger only — freezes the last
// flightWindowMS of ring events as the incident snapshot. Later
// triggers only count; the first incident is the one worth the dump,
// and freezing keeps its prelude from being overwritten while the run
// continues.
func (r *Recorder) flightTrip(cause string, at sim.Time) {
	r.reg.get("poly_flight_triggers_total", "Flight-recorder triggers by cause.",
		kindCounter, Labels{"cause", cause}).inc()
	r.emit(traceEv{kind: evFlightTrigger, name: r.in.flightTrigger, ts: us(at),
		pid: int32(r.session), tid: tidRequests, s1: r.tab.id(cause)})
	if r.flightSnap != nil {
		return
	}
	since := us(at) - flightWindowMS*1000
	r.flightSnap = &flightSnapshot{cause: cause, atMS: float64(at),
		events: r.flight.snapshot(since)}
}

// FlightTriggered reports the first flight-recorder trigger, if any.
func (r *Recorder) FlightTriggered() (cause string, atMS float64, ok bool) {
	if r.flightSnap == nil {
		return "", 0, false
	}
	return r.flightSnap.cause, r.flightSnap.atMS, true
}

// flightMeta builds the Perfetto process/thread metadata prologue
// for a flight dump from the current session's boards.
func (r *Recorder) flightMeta() []traceEv {
	meta := make([]traceEv, 0, 3+len(r.boardList))
	meta = append(meta,
		traceEv{kind: evMetaProcess, name: r.in.processName, pid: int32(r.session), s1: r.in.flightProcess},
		traceEv{kind: evMetaThread, name: r.in.threadName, pid: int32(r.session), tid: tidGovernor, s1: r.in.governor},
		traceEv{kind: evMetaThread, name: r.in.threadName, pid: int32(r.session), tid: tidRequests, s1: r.in.requests},
	)
	for _, bs := range r.boardList {
		meta = append(meta, traceEv{kind: evMetaThread, name: r.in.threadName,
			pid: int32(r.session), tid: bs.tid, s1: bs.label})
	}
	return meta
}

// WriteFlight renders the flight recorder as Chrome trace-event JSON:
// the frozen incident snapshot if a trigger fired, otherwise the live
// tail of the ring. A recorder built with a negative FlightRingCap has
// no ring to render.
func (r *Recorder) WriteFlight(w io.Writer) error {
	if r.flight.cap == 0 {
		return errors.New("telemetry: recorder keeps no flight ring (negative FlightRingCap)")
	}
	meta := r.flightMeta()
	if r.flightSnap != nil {
		return writeTraceEvents(w, r.tab, meta, r.flightSnap.events)
	}
	return writeTraceEvents(w, r.tab, meta, r.flight.snapshot(0))
}
