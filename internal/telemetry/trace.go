package telemetry

import (
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome trace-event (the JSON format Perfetto and
// chrome://tracing load). Timestamps are microseconds of *simulated*
// time — the trace is a rendering of the deterministic event timeline,
// never of wall clock.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// Reserved per-session track ids; board tracks start at tidFirstBoard.
const (
	tidGovernor   = 0
	tidRequests   = 1
	tidFirstBoard = 2
)

// strtab interns event strings to dense ids so stored events carry no
// pointers: the garbage collector never scans a trace buffer or flight
// ring of pointer-free structs, no matter how many million events they
// hold. Id 0 is always the empty string.
type strtab struct {
	ids   map[string]int32
	strs  []string
	pairs map[[2]string]int32 // prefix+s ids, see prefixed
}

func newStrtab() *strtab {
	t := &strtab{ids: make(map[string]int32, 64), pairs: make(map[[2]string]int32)}
	t.id("")
	return t
}

// prefixed interns prefix+s ("batch:full", "retry:fft"), concatenating
// only the first time a pair is seen, so event names built from a
// prefix cost the hot path one map probe and no allocation.
func (t *strtab) prefixed(prefix, s string) int32 {
	id, ok := t.pairs[[2]string{prefix, s}]
	if !ok {
		id = t.id(prefix + s)
		t.pairs[[2]string{prefix, s}] = id
	}
	return id
}

// id interns s. A hit is one map probe with no allocation — the hot
// paths pass either fixed names or strings that were interned at
// registration, so steady-state recording never grows the table.
func (t *strtab) id(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

func (t *strtab) str(id int32) string { return t.strs[id] }

// traceEv is the compact in-memory form of a trace event: fixed fields
// plus a kind tag, strings as strtab ids, no per-event Args map. The
// hot recording path stores these; materialize builds the exported
// TraceEvent (and its Args map) only when a trace is written.
type traceEv struct {
	ts, dur    float64
	f1, f2     float64
	i1         int64
	name       int32
	s1, s2, s3 int32
	pid, tid   int32
	kind       uint8
}

// traceEv kinds.
const (
	evMetaProcess uint8 = iota
	evMetaThread
	evKernel
	evReconfig
	evViolation
	evPlanError
	evBatch
	evShed
	evRetry
	evHealth
	evGovernor
	evPower
	evDVFS
	evSLOBurn
	evFlightTrigger
	evAdmit
)

// materialize expands a compact event into the exported JSON shape.
func (e *traceEv) materialize(tab *strtab) TraceEvent {
	out := TraceEvent{Name: tab.str(e.name), TS: e.ts, Dur: e.dur, PID: int(e.pid), TID: int(e.tid)}
	switch e.kind {
	case evMetaProcess, evMetaThread:
		out.Phase = "M"
		out.Args = map[string]any{"name": tab.str(e.s1)}
	case evKernel:
		out.Cat, out.Phase = "kernel", "X"
		out.Args = map[string]any{"impl": tab.str(e.s1), "batch": e.i1}
	case evReconfig:
		out.Cat, out.Phase = "reconfig", "X"
		out.Args = map[string]any{"impl": tab.str(e.s1), "mode": tab.str(e.s2)}
	case evViolation:
		out.Cat, out.Phase, out.Scope = "violation", "i", "t"
		out.Args = map[string]any{"latency_ms": e.f1, "bound_ms": e.f2, "span": e.i1}
	case evPlanError:
		out.Cat, out.Phase, out.Scope = "violation", "i", "t"
	case evBatch:
		out.Cat, out.Phase, out.Scope = "batch", "i", "t"
		out.Args = map[string]any{"size": e.i1, "hold_ms": e.f1}
	case evShed:
		out.Cat, out.Phase, out.Scope = "fault", "i", "t"
	case evRetry:
		out.Cat, out.Phase, out.Scope = "fault", "i", "t"
		out.Args = map[string]any{"kernel": tab.str(e.s1)}
	case evHealth:
		out.Cat, out.Phase, out.Scope = "fault", "i", "t"
		out.Args = map[string]any{"from": tab.str(e.s1), "to": tab.str(e.s2)}
	case evGovernor:
		out.Cat, out.Phase, out.Scope = "governor", "i", "p"
		out.Args = map[string]any{"from": tab.str(e.s1), "to": tab.str(e.s2), "cause": tab.str(e.s3)}
	case evPower:
		out.Cat, out.Phase = "power", "C"
		out.Args = map[string]any{"watts": e.f1}
	case evDVFS:
		out.Cat, out.Phase, out.Scope = "dvfs", "i", "t"
		out.Args = map[string]any{"level": e.i1}
	case evSLOBurn:
		out.Cat, out.Phase, out.Scope = "slo", "i", "p"
		out.Args = map[string]any{"short_burn": e.f1, "long_burn": e.f2, "state": tab.str(e.s1)}
	case evFlightTrigger:
		out.Cat, out.Phase, out.Scope = "flight", "i", "p"
		out.Args = map[string]any{"cause": tab.str(e.s1)}
	case evAdmit:
		out.Cat, out.Phase, out.Scope = "request", "i", "t"
		out.Args = map[string]any{"span": e.i1, "bound_ms": e.f1}
	}
	return out
}

// traceChunk is how many events each trace-buffer chunk holds. Chunked
// growth means reaching a million-event cap never copies what is
// already recorded (append-doubling would move the whole buffer a
// dozen times on the way up).
const traceChunk = 1 << 14

// traceBuf accumulates trace events up to a cap; overflow is counted,
// not stored, so a runaway sweep cannot exhaust memory. A cap of 0 keeps
// nothing: add returns at once, stores no event and counts no drop.
type traceBuf struct {
	chunks  [][]traceEv
	n       int
	cap     int
	dropped int
}

// newTraceBuf builds a buffer of cap events; a negative cap keeps none.
func newTraceBuf(cap int) *traceBuf {
	return &traceBuf{cap: max(cap, 0)}
}

func (b *traceBuf) add(e traceEv) {
	if b.n >= b.cap {
		if b.cap > 0 {
			b.dropped++
		}
		return
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := traceChunk
		if rem := b.cap - b.n; rem < size {
			size = rem
		}
		b.chunks = append(b.chunks, make([]traceEv, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], e)
	b.n++
}

// writeTraceEvents renders compact event slices (e.g. a metadata
// prologue plus a body) as a Chrome trace JSON object.
func writeTraceEvents(w io.Writer, tab *strtab, groups ...[]traceEv) error {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	out := make([]TraceEvent, 0, n)
	for _, g := range groups {
		for i := range g {
			out = append(out, g[i].materialize(tab))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     out,
	})
}

// writeTrace renders the buffer as a Chrome trace JSON object.
func (b *traceBuf) writeTrace(w io.Writer, tab *strtab) error {
	return writeTraceEvents(w, tab, b.chunks...)
}
