// Package telemetry is Poly's runtime observability layer: a label-keyed
// metric registry (counters, gauges, fixed-bucket latency histograms), a
// bounded ring of per-request spans with a fixed stage-latency breakdown,
// per-resource allocated/allocatable accounting, an SLO burn-rate
// tracker, a QoS flight recorder, and exporters — Prometheus text
// exposition for a live /metrics endpoint and Chrome trace-event JSON
// dumps (Perfetto-loadable) of the simulated timeline.
//
// Determinism rule: every timestamp that enters this package is a
// sim.Time from the single-threaded discrete-event simulator, never wall
// clock, so a run's metrics and trace are bit-identical at any
// POLY_WORKERS pool size. The whole layer hangs off the nil-able Sink
// interface: a disabled sink costs the emitting layers only nil-checks,
// which is what keeps the telemetry-off serving path within noise of the
// un-instrumented one (BenchmarkServeSteadyState).
//
// Ownership rule: a Recorder is read and written only by the goroutine
// that records into it — a serving session, or the fleet drain stepping
// its shards — so it holds no lock. The one cross-goroutine path is
// MetricsHandler: a live /metrics scrape hands the owner a reply channel
// and the owner renders the exposition at its next FinishSpan or
// PowerSample, a point between simulator events.
//
// The enabled path is budgeted too: per-board series pointers cached at
// registration, compact (map-free) trace events, and recycled spans keep
// BenchmarkServeTelemetryOn within 10% of telemetry-off (CI-gated).
// Derived series — utilization ratios and SLO burn gauges — are synced
// lazily at scrape time, not per event.
package telemetry

import (
	"bytes"
	"errors"
	"io"
	"net/http"

	"poly/internal/sim"
)

// Sink receives runtime events. *Recorder implements it; emitting layers
// hold a nil Sink when telemetry is disabled. The device-facing subsets
// (Launched/ReconfigStart/DVFSChanged, and BusyChanged/PowerChanged/
// BitstreamResident) structurally satisfy device.Observer and
// device.ResourceObserver, so one sink serves every layer.
type Sink interface {
	// BeginSession opens a new serving session (one server run). Each
	// session becomes one Perfetto process with its own board tracks.
	BeginSession(label string)
	// RegisterBoard declares a board of the current session; class is
	// "GPU" or "FPGA".
	RegisterBoard(name, class string)

	// RegisterNodeResource declares a node-level resource envelope
	// (ResComputeSlots, ResPowerW, ResFPGARegions) and its allocatable
	// capacity, creating the poly_node_{allocated,allocatable,
	// utilization_ratio} gauge set.
	RegisterNodeResource(resource string, allocatable float64)
	// RegisterBoardResource declares one board's share of a resource,
	// creating the per-board gauge variants.
	RegisterBoardResource(board, resource string, allocatable float64)

	// StartSpan opens a per-request span at admission; the runtime fills
	// plan fields and kernel records, then hands it back via FinishSpan.
	StartSpan(at sim.Time, boundMS float64) *Span
	// FinishSpan records a completed request: ring, latency and stage
	// histograms, outcome counters, SLO burn tracking, and a violation
	// instant on the trace (a measured violation also trips the flight
	// recorder).
	FinishSpan(sp *Span, at sim.Time)
	// PlanError counts a request dropped at planning time.
	PlanError(at sim.Time)
	// PlanUpdate records one planning outcome: plan-cache hit/miss and
	// the plan's Step-2 energy swap count.
	PlanUpdate(cacheHit bool, energySwaps int)

	// BatchFlush records one admission-batch group leaving the staging
	// stage: its size, the mean time its members were held, and why it
	// flushed ("full", "maxwait") or dissolved ("disband").
	BatchFlush(at sim.Time, size int, holdMS float64, reason string)

	// RequestShed counts a request rejected by admission control because
	// the degraded node could not meet the latency bound.
	RequestShed(at sim.Time)
	// TaskRetry records one kernel-level retry after a device task
	// failure: the board that lost the task and the kernel re-placed.
	TaskRetry(device, kernel string, at sim.Time)
	// BoardHealthChanged records a board health-state transition
	// (healthy, suspect, down) made by the runtime's monitor. A
	// transition to down trips the flight recorder.
	BoardHealthChanged(device, from, to string, at sim.Time)

	// GovernorTransition records a governor mode change and its cause.
	GovernorTransition(at sim.Time, from, to, cause string)
	// PowerSample records the node's instantaneous power draw.
	PowerSample(at sim.Time, watts float64)

	// Launched records one physical execution on a board: a (possibly
	// batched) GPU launch or one FPGA task.
	Launched(device, kernel, implID string, batch int, start, end sim.Time)
	// ReconfigStart records an FPGA bitstream load and its stall span.
	ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool)
	// DVFSChanged records a GPU operating-point change.
	DVFSChanged(device string, level int, at sim.Time)

	// BusyChanged records a board's in-flight task count (compute-slot
	// occupancy); PowerChanged its instantaneous draw; BitstreamResident
	// the bitstream occupying an FPGA's region ("" = blank). Together
	// these drive the resource-accounting gauges.
	BusyChanged(device string, busy int, at sim.Time)
	PowerChanged(device string, watts float64, at sim.Time)
	BitstreamResident(device, implID string, at sim.Time)
}

// Options tunes a Recorder.
type Options struct {
	// SpanRingCap bounds the retained finished spans (default 1024).
	// Evicted spans are recycled, so snapshots from Spans() are only
	// valid until the ring wraps past them.
	SpanRingCap int
	// TraceEventCap bounds the trace buffer (0 = the default, 1<<20
	// events); overflow increments poly_trace_events_dropped_total. A
	// negative cap keeps no trace at all: events are neither stored nor
	// counted as dropped, and WriteTrace returns an error. Only an owner
	// that will write the trace should keep one.
	TraceEventCap int
	// FlightRingCap bounds the flight-recorder ring (0 = the default,
	// 8192 events, oldest overwritten). A negative cap keeps no ring:
	// triggers are still counted and FlightTriggered still reports the
	// first one, but WriteFlight returns an error.
	FlightRingCap int
}

const (
	// flightWindowMS is how much trailing simulated time a flight dump
	// keeps before the trigger.
	flightWindowMS = 2000
	// sloTarget is the violation budget the burn rate is measured
	// against: a 1% violation ratio burns at rate 1.0.
	sloTarget = 0.01
	// sloShortWindowMS and sloLongWindowMS are the two sliding windows.
	sloShortWindowMS = 5000
	sloLongWindowMS  = 60000
	// sloBurnThreshold trips the burn alert when both windows exceed it;
	// the alert clears with 2:1 hysteresis.
	sloBurnThreshold = 2.0
)

func (o *Options) withDefaults() {
	if o.SpanRingCap <= 0 {
		o.SpanRingCap = 1024
	}
	if o.TraceEventCap == 0 {
		o.TraceEventCap = 1 << 20
	}
	if o.FlightRingCap == 0 {
		o.FlightRingCap = 8192
	}
}

// boardState caches everything the hot path needs for one board: its
// Perfetto track, its metric series pointers (resolved once at
// registration instead of per event), and its raw resource occupancy.
type boardState struct {
	name  string
	class string
	tid   int32

	label int32 // interned "name (class)" track label

	launches, busyMS       *Metric
	queueHist, serviceHist *Metric
	dvfs                   *Metric
	reconfigFG, reconfigBG *Metric
	reconfigStall          *Metric
	execs                  map[string]*Metric // kernel → exec counter

	res    [numResources]resVals
	resOn  [numResources]bool
	gauges [numResources]resGauges
}

// Recorder is the standard Sink: it feeds the registry, the span ring,
// the trace buffer, the flight recorder, and the SLO tracker. It records
// one timeline, owned by one goroutine (see the package doc): sessions
// follow each other, and concurrently-running sessions (a parallel
// sweep, fleet shards) each need their own Recorder.
type Recorder struct {
	// scrapes carries waiting MetricsHandler calls' reply channels to
	// the owner (answerScrape).
	scrapes chan chan []byte

	reg   Registry
	spans *SpanRing
	trace *traceBuf
	tab   *strtab
	in    fixedIDs

	session   int // current Perfetto pid; 0 before BeginSession
	boards    map[string]*boardState
	boardList []*boardState // registration order, for deterministic output
	nextTID   int
	nextSpan  uint64
	spanFree  []*Span // recycled ring evictions

	slo        *sloTracker
	flight     *flightRing
	flightSnap *flightSnapshot

	nodeRes    [numResources]resVals
	nodeResOn  [numResources]bool
	nodeGauges [numResources]resGauges

	stageHists [NumStages]*Metric

	// cached hot-path series
	cOK, cViolation, cWarmup, cDroppedReq, cShed *Metric
	cPlanErr                                     *Metric
	cCacheHit, cCacheMiss, cSwaps                *Metric
	hLatency, hAdmitWait                         *Metric
	gPower, gInflightSpans                       *Metric
	cDropped                                     *Metric
	cBatchFull, cBatchMaxwait, cBatchDisband     *Metric
	hBatchSize, hBatchHold                       *Metric
	gBurnShort, gBurnLong                        *Metric
	gVioShort, gVioLong                          *Metric
	gBurnAlert, cBurnTrips                       *Metric
}

// fixedIDs caches the strtab ids of every constant event string, so
// hot-path emission is pure field assembly — no map probes for names
// that never change.
type fixedIDs struct {
	processName, threadName int32
	governor, requests      int32
	violation, planError    int32
	shed, power, dvfs       int32
	reconfig, admit         int32
	sloBurn, flightTrigger  int32
	trip, flightProcess     int32
	modeFG, modeBG          int32
}

// New returns a Recorder with default options.
func New() *Recorder { return NewWithOptions(Options{}) }

// NewWithOptions returns a Recorder with explicit bounds.
func NewWithOptions(o Options) *Recorder {
	o.withDefaults()
	r := &Recorder{
		spans:   NewSpanRing(o.SpanRingCap),
		trace:   newTraceBuf(o.TraceEventCap),
		flight:  newFlightRing(o.FlightRingCap),
		boards:  make(map[string]*boardState),
		scrapes: make(chan chan []byte),
		slo:     newSLOTracker(sloTarget, sloShortWindowMS, sloLongWindowMS, sloBurnThreshold),
	}
	r.tab = newStrtab()
	r.in = fixedIDs{
		processName:   r.tab.id("process_name"),
		threadName:    r.tab.id("thread_name"),
		governor:      r.tab.id("governor"),
		requests:      r.tab.id("requests"),
		violation:     r.tab.id("violation"),
		planError:     r.tab.id("plan_error"),
		shed:          r.tab.id("shed"),
		power:         r.tab.id("power"),
		dvfs:          r.tab.id("dvfs"),
		reconfig:      r.tab.id("reconfig"),
		admit:         r.tab.id("admit"),
		sloBurn:       r.tab.id("slo_burn"),
		flightTrigger: r.tab.id("flight_trigger"),
		trip:          r.tab.id("trip"),
		flightProcess: r.tab.id("flight recorder"),
		modeFG:        r.tab.id(modeForeground),
		modeBG:        r.tab.id(modeBackground),
	}
	r.cOK = r.reg.Counter("poly_requests_total", "Finished requests by outcome.", "outcome", "ok")
	r.cViolation = r.reg.Counter("poly_requests_total", "", "outcome", "violation")
	r.cWarmup = r.reg.Counter("poly_requests_total", "", "outcome", "warmup")
	r.cDroppedReq = r.reg.Counter("poly_requests_total", "", "outcome", "dropped")
	r.cShed = r.reg.Counter("poly_requests_total", "", "outcome", "shed")
	r.cPlanErr = r.reg.Counter("poly_plan_errors_total", "Requests dropped because planning failed.")
	r.cCacheHit = r.reg.Counter("poly_plan_cache_hits_total", "Plans served from the plan cache.")
	r.cCacheMiss = r.reg.Counter("poly_plan_cache_misses_total", "Plans computed cold.")
	r.cSwaps = r.reg.Counter("poly_energy_swaps_total", "Step-2 energy implementation swaps across plans.")
	r.hLatency = r.reg.Histogram("poly_request_latency_ms", "End-to-end request latency (post-warmup).")
	r.hAdmitWait = r.reg.Histogram("poly_admit_wait_ms", "Admission to first kernel start.")
	for i := 0; i < NumStages; i++ {
		r.stageHists[i] = r.reg.Histogram("poly_stage_latency_ms",
			"Per-stage request latency breakdown (stages sum to end-to-end latency).",
			"stage", StageNames[i])
	}
	r.gPower = r.reg.Gauge("poly_power_watts", "Node accelerator power at the last sample.")
	r.gInflightSpans = r.reg.Gauge("poly_spans_inflight", "Spans started but not finished.")
	r.cDropped = r.reg.Counter("poly_trace_events_dropped_total", "Trace events over the buffer cap.")
	r.cBatchFull = r.reg.Counter("poly_batch_groups_total", "Admission-batch groups by flush reason.", "reason", "full")
	r.cBatchMaxwait = r.reg.Counter("poly_batch_groups_total", "", "reason", "maxwait")
	r.cBatchDisband = r.reg.Counter("poly_batch_groups_total", "", "reason", "disband")
	r.hBatchSize = r.reg.Histogram("poly_batch_size", "Admission-batch group sizes.")
	r.hBatchHold = r.reg.Histogram("poly_batch_hold_ms", "Mean staging hold per admission-batch group.")
	r.gBurnShort = r.reg.Gauge("poly_slo_burn_rate", "QoS-violation burn rate (violation ratio over target) per sliding window.", "window", "short")
	r.gBurnLong = r.reg.Gauge("poly_slo_burn_rate", "", "window", "long")
	r.gVioShort = r.reg.Gauge("poly_slo_violation_ratio", "QoS-violation ratio per sliding window.", "window", "short")
	r.gVioLong = r.reg.Gauge("poly_slo_violation_ratio", "", "window", "long")
	r.gBurnAlert = r.reg.Gauge("poly_slo_burn_alert", "1 while both burn-rate windows exceed the trip threshold.")
	r.cBurnTrips = r.reg.Counter("poly_slo_burn_trips_total", "Burn-rate alert activations.")
	return r
}

// Registry exposes the metric registry for tests.
func (r *Recorder) Registry() *Registry { return &r.reg }

// Spans returns the retained finished spans, oldest first. The snapshot
// aliases live ring entries: it is only valid until enough newer
// requests finish to wrap the ring and recycle its spans.
func (r *Recorder) Spans() []*Span { return r.spans.Snapshot() }

// SpanTotal returns how many spans finished over the recorder's lifetime.
func (r *Recorder) SpanTotal() int { return r.spans.Total() }

// BeginSession implements Sink.
func (r *Recorder) BeginSession(label string) {
	r.session++
	r.nextTID = tidFirstBoard
	clear(r.boards)
	r.boardList = r.boardList[:0]
	// A new session restarts the simulated clock; burn-rate windows from
	// the previous timeline must not bleed into it.
	r.slo.reset()
	r.trace.add(traceEv{kind: evMetaProcess, name: r.in.processName, pid: int32(r.session), s1: r.tab.id(label)})
	r.trace.add(traceEv{kind: evMetaThread, name: r.in.threadName, pid: int32(r.session), tid: tidGovernor, s1: r.in.governor})
	r.trace.add(traceEv{kind: evMetaThread, name: r.in.threadName, pid: int32(r.session), tid: tidRequests, s1: r.in.requests})
}

// board resolves (or creates) a board's cached state. Event paths pass
// an empty class: they may see a board the runtime never registered,
// and a later RegisterBoard fills the class in.
func (r *Recorder) board(name, class string) *boardState {
	if bs, ok := r.boards[name]; ok {
		if bs.class == "" && class != "" {
			bs.class = class
			bs.label = r.tab.id(name + " (" + class + ")")
		}
		return bs
	}
	tid := r.nextTID
	if tid < tidFirstBoard {
		tid = tidFirstBoard
	}
	r.nextTID = tid + 1
	bs := &boardState{name: name, class: class, tid: int32(tid),
		label: r.tab.id(name + " (" + class + ")"),
		execs: make(map[string]*Metric)}
	bs.launches = r.reg.get("poly_device_launches_total", "Physical launches per board.",
		kindCounter, Labels{"device", name})
	bs.busyMS = r.reg.get("poly_device_busy_ms_total", "Execution-busy milliseconds per board.",
		kindCounter, Labels{"device", name})
	bs.queueHist = r.reg.get("poly_kernel_queue_ms", "Per-kernel device queue wait.",
		kindHistogram, Labels{"device", name})
	bs.serviceHist = r.reg.get("poly_kernel_service_ms", "Per-kernel execution span.",
		kindHistogram, Labels{"device", name})
	bs.dvfs = r.reg.get("poly_device_dvfs_level", "Current GPU DVFS ladder index.",
		kindGauge, Labels{"device", name})
	r.boards[name] = bs
	r.boardList = append(r.boardList, bs)
	return bs
}

// RegisterBoard implements Sink.
func (r *Recorder) RegisterBoard(name, class string) {
	if r.session == 0 {
		r.session = 1 // boards registered without an explicit session
	}
	known := r.boards[name] != nil
	bs := r.board(name, class)
	if class == "FPGA" {
		r.fpgaSeries(bs)
	}
	if known {
		return
	}
	r.trace.add(traceEv{kind: evMetaThread, name: r.in.threadName, pid: int32(r.session),
		tid: bs.tid, s1: bs.label})
}

// us converts simulated milliseconds to trace microseconds.
func us(t sim.Time) float64 { return float64(t) * 1000 }

// emit appends a compact event to the trace buffer and the flight
// ring.
func (r *Recorder) emit(e traceEv) {
	r.trace.add(e)
	r.flight.add(e)
}

// StartSpan implements Sink.
func (r *Recorder) StartSpan(at sim.Time, boundMS float64) *Span {
	r.nextSpan++
	var sp *Span
	if n := len(r.spanFree); n > 0 {
		sp = r.spanFree[n-1]
		r.spanFree = r.spanFree[:n-1]
		sp.reset(r.nextSpan, float64(at), boundMS)
	} else {
		sp = &Span{ID: r.nextSpan, ArrivedMS: float64(at), BoundMS: boundMS}
	}
	r.gInflightSpans.val++
	// Admissions are flight-only: too hot for the main trace buffer,
	// exactly what a post-incident dump needs.
	r.flight.add(traceEv{kind: evAdmit, name: r.in.admit, ts: us(at),
		pid: int32(r.session), tid: tidRequests, i1: int64(sp.ID), f1: boundMS})
	return sp
}

// FinishSpan implements Sink.
func (r *Recorder) FinishSpan(sp *Span, at sim.Time) {
	if !sp.Dropped {
		sp.ComputeStages()
	}
	r.gInflightSpans.val--
	switch {
	case sp.Dropped:
		r.cDroppedReq.inc()
	case !sp.Measured:
		r.cWarmup.inc()
	case sp.Violation:
		r.cViolation.inc()
	default:
		r.cOK.inc()
	}
	if sp.Measured {
		r.hLatency.observe(sp.LatencyMS)
		r.hAdmitWait.observe(sp.AdmitWaitMS())
		for i := 0; i < NumStages; i++ {
			r.stageHists[i].observe(sp.Stages.Get(i))
		}
	}
	if !sp.Dropped {
		for _, k := range sp.Kernels {
			if k.EndMS <= k.StartMS {
				continue // failed attempt; its retry record carries the stats
			}
			bs := r.board(k.Device, "")
			bs.queueHist.observe(k.QueueMS())
			bs.serviceHist.observe(k.ServiceMS())
			c := bs.execs[k.Kernel]
			if c == nil {
				c = r.reg.get("poly_kernel_execs_total", "Kernel executions by placement.",
					kindCounter, Labels{"device", k.Device, "kernel", k.Kernel})
				bs.execs[k.Kernel] = c
			}
			c.inc()
		}
	}
	if sp.Measured {
		if trip, short, long := r.slo.observe(float64(at), sp.Violation); trip {
			r.cBurnTrips.inc()
			r.emit(traceEv{kind: evSLOBurn, name: r.in.sloBurn, ts: us(at),
				pid: int32(r.session), tid: tidGovernor, f1: short, f2: long, s1: r.in.trip})
		}
	}
	if sp.Violation {
		r.emit(traceEv{kind: evViolation, name: r.in.violation, ts: us(at),
			pid: int32(r.session), tid: tidRequests,
			f1: sp.LatencyMS, f2: sp.BoundMS, i1: int64(sp.ID)})
		if sp.Measured {
			r.flightTrip("violation", at)
		}
	}
	if old := r.spans.PushEvict(sp); old != nil {
		r.spanFree = append(r.spanFree, old)
	}
	r.answerScrape()
}

// PlanError implements Sink.
func (r *Recorder) PlanError(at sim.Time) {
	r.cPlanErr.inc()
	r.emit(traceEv{kind: evPlanError, name: r.in.planError, ts: us(at),
		pid: int32(r.session), tid: tidRequests})
}

// PlanUpdate implements Sink.
func (r *Recorder) PlanUpdate(cacheHit bool, energySwaps int) {
	if cacheHit {
		r.cCacheHit.inc()
	} else {
		r.cCacheMiss.inc()
	}
	if energySwaps > 0 {
		r.cSwaps.add(float64(energySwaps))
	}
}

// BatchFlush implements Sink.
func (r *Recorder) BatchFlush(at sim.Time, size int, holdMS float64, reason string) {
	switch reason {
	case "full":
		r.cBatchFull.inc()
	case "maxwait":
		r.cBatchMaxwait.inc()
	case "disband":
		r.cBatchDisband.inc()
	default:
		r.reg.get("poly_batch_groups_total", "", kindCounter,
			Labels{"reason", reason}).inc()
	}
	r.hBatchSize.observe(float64(size))
	r.hBatchHold.observe(holdMS)
	r.emit(traceEv{kind: evBatch, name: r.tab.prefixed("batch:", reason), ts: us(at),
		pid: int32(r.session), tid: tidRequests, i1: int64(size), f1: holdMS})
}

// RequestShed implements Sink.
func (r *Recorder) RequestShed(at sim.Time) {
	r.cShed.inc()
	r.emit(traceEv{kind: evShed, name: r.in.shed, ts: us(at),
		pid: int32(r.session), tid: tidRequests})
}

// TaskRetry implements Sink.
func (r *Recorder) TaskRetry(device, kernel string, at sim.Time) {
	bs := r.board(device, "")
	r.reg.get("poly_task_retries_total", "Kernel retries after device task failures.",
		kindCounter, Labels{"device", device}).inc()
	r.emit(traceEv{kind: evRetry, name: r.tab.prefixed("retry:", kernel), ts: us(at),
		pid: int32(r.session), tid: bs.tid, s1: r.tab.id(kernel)})
}

// BoardHealthChanged implements Sink.
func (r *Recorder) BoardHealthChanged(device, from, to string, at sim.Time) {
	bs := r.board(device, "")
	r.reg.get("poly_board_health_transitions_total", "Board health-state transitions.",
		kindCounter, Labels{"device", device, "to", to}).inc()
	r.emit(traceEv{kind: evHealth, name: r.tab.prefixed("health:", to), ts: us(at),
		pid: int32(r.session), tid: bs.tid, s1: r.tab.id(from), s2: r.tab.id(to)})
	if to == "down" {
		r.flightTrip("board_down", at)
	}
}

// GovernorTransition implements Sink.
func (r *Recorder) GovernorTransition(at sim.Time, from, to, cause string) {
	r.reg.get("poly_governor_transitions_total", "Governor mode changes by cause.",
		kindCounter, Labels{"from", from, "to", to, "cause", cause}).inc()
	r.emit(traceEv{kind: evGovernor, name: r.tab.prefixed("governor:", to), ts: us(at),
		pid: int32(r.session), tid: tidGovernor,
		s1: r.tab.id(from), s2: r.tab.id(to), s3: r.tab.id(cause)})
}

// PowerSample implements Sink.
func (r *Recorder) PowerSample(at sim.Time, watts float64) {
	r.gPower.set(watts)
	r.emit(traceEv{kind: evPower, name: r.in.power, ts: us(at),
		pid: int32(r.session), tid: tidGovernor, f1: watts})
	r.answerScrape()
}

// Launched implements Sink (the device.Observer subset).
func (r *Recorder) Launched(device, kernel, implID string, batch int, start, end sim.Time) {
	bs := r.board(device, "")
	bs.launches.inc()
	bs.busyMS.add(float64(end - start))
	r.emit(traceEv{kind: evKernel, name: r.tab.id(kernel), s1: r.tab.id(implID),
		i1: int64(batch), ts: us(start), dur: us(end - start), pid: int32(r.session), tid: bs.tid})
}

const (
	modeForeground = "foreground"
	modeBackground = "background"
)

// fpgaSeries resolves a board's FPGA reconfiguration series once:
// at registration for an FPGA, or at the first bitstream load on a board
// the runtime never registered.
func (r *Recorder) fpgaSeries(bs *boardState) {
	if bs.reconfigFG != nil {
		return
	}
	bs.reconfigFG = r.reg.get("poly_device_reconfigs_total", "FPGA bitstream loads per board.",
		kindCounter, Labels{"device", bs.name, "mode", modeForeground})
	bs.reconfigBG = r.reg.get("poly_device_reconfigs_total", "",
		kindCounter, Labels{"device", bs.name, "mode", modeBackground})
	bs.reconfigStall = r.reg.get("poly_device_reconfig_stall_ms_total",
		"Milliseconds boards spent reconfiguring.", kindCounter, Labels{"device", bs.name})
}

// ReconfigStart implements Sink (the device.Observer subset).
func (r *Recorder) ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool) {
	bs := r.board(device, "")
	r.fpgaSeries(bs)
	mode := r.in.modeFG
	if background {
		mode = r.in.modeBG
		bs.reconfigBG.inc()
	} else {
		bs.reconfigFG.inc()
	}
	bs.reconfigStall.add(stallMS)
	r.emit(traceEv{kind: evReconfig, name: r.in.reconfig, ts: us(at), dur: stallMS * 1000,
		pid: int32(r.session), tid: bs.tid, s1: r.tab.id(implID), s2: mode})
}

// DVFSChanged implements Sink (the device.Observer subset).
func (r *Recorder) DVFSChanged(device string, level int, at sim.Time) {
	bs := r.board(device, "")
	bs.dvfs.set(float64(level))
	r.emit(traceEv{kind: evDVFS, name: r.in.dvfs, ts: us(at),
		pid: int32(r.session), tid: bs.tid, i1: int64(level)})
}

// TraceDropped reports how many trace events exceeded the buffer cap.
func (r *Recorder) TraceDropped() int { return r.trace.dropped }

// TraceEventCount reports the buffered trace event count.
func (r *Recorder) TraceEventCount() int { return r.trace.n }

// WriteTrace renders the buffered timeline as Chrome trace-event JSON
// (load it at https://ui.perfetto.dev or chrome://tracing). A recorder
// built with a negative TraceEventCap has no timeline to render.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r.trace.cap == 0 {
		return errors.New("telemetry: recorder keeps no trace (negative TraceEventCap)")
	}
	if d := r.trace.dropped; d > 0 {
		r.cDropped.set(float64(d))
	}
	return r.trace.writeTrace(w, r.tab)
}

// syncDerived refreshes every scrape-time series: resource
// utilization gauges, SLO burn gauges, and the trace-drop counter. Doing this once per scrape keeps the per-event
// recording path flat.
func (r *Recorder) syncDerived() {
	r.syncResources()
	shortBurn, longBurn, shortVio, longVio := r.slo.rates()
	r.gBurnShort.set(shortBurn)
	r.gBurnLong.set(longBurn)
	r.gVioShort.set(shortVio)
	r.gVioLong.set(longVio)
	if r.slo.alerting {
		r.gBurnAlert.set(1)
	} else {
		r.gBurnAlert.set(0)
	}
	if r.trace.dropped > 0 {
		r.cDropped.set(float64(r.trace.dropped))
	}
}

// WritePrometheus renders the metric registry in the Prometheus text
// exposition format, refreshing derived gauges first.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	r.syncDerived()
	return r.reg.write(w)
}

// MetricsHandler serves WritePrometheus over HTTP — mount it at /metrics
// on the pprof listener. It is the one method safe to call from another
// goroutine: it hands a reply channel to the owner and waits for the
// text the owner renders at its next FinishSpan or PowerSample, or
// gives up when the request's context ends. A scrape that arrives after
// the run has ended therefore waits until its client goes away.
func (r *Recorder) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reply := make(chan []byte, 1)
		select {
		case r.scrapes <- reply:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = w.Write(<-reply)
		case <-req.Context().Done():
		}
	})
}

// answerScrape renders the exposition for a waiting MetricsHandler, if
// there is one. The receive never blocks, so an unscraped recorder pays
// one empty-channel check per call.
func (r *Recorder) answerScrape() {
	select {
	case reply := <-r.scrapes:
		var buf bytes.Buffer
		_ = r.WritePrometheus(&buf)
		reply <- buf.Bytes()
	default:
	}
}

var _ Sink = (*Recorder)(nil)
