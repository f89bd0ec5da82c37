package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// tracer keeps the benchmark's own host-time spans in memory: one per
// public call into a layer (set-up steps, inject, drain, replays). It
// writes them out as Perfetto JSON when the run ends. A nil tracer
// records nothing, which is how the untraced run stays untraced.
type tracer struct {
	t0    time.Time
	spans []hostSpan
}

type hostSpan struct {
	name       string
	parent     int // index+1 of the enclosing span; 0 for a root
	start, end time.Duration
	args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, hostSpan{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id, attaching optional key/value args.
func (t *tracer) end(id int, kv ...any) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.end = time.Since(t.t0)
	for i := 0; i+1 < len(kv); i += 2 {
		if s.args == nil {
			s.args = map[string]any{}
		}
		s.args[kv[i].(string)] = kv[i+1]
	}
}

// write renders the spans as Chrome trace-event JSON, loadable in
// Perfetto. Nesting shows as stacking on one track; "id" and "parent"
// args carry the causal links.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i + 1, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.name, Ph: "X", TS: float64(s.start.Microseconds()),
			Dur: float64((s.end - s.start).Microseconds()), PID: 1, TID: 1, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTally is what the traced run reads from one node's runtime
// events: planner outcomes, stage samples of measured requests, time
// spent inside the telemetry layer, and the simulator's queue depth at
// each physical launch.
type layerTally struct {
	coldPlans, coldSwaps int
	queue, exec          sim.Sample
	holdSum, transferSum float64
	stageN               int
	spans                int
	sinkNS               int64
	pending              []float64
}

// timedSink is the benchmark's telemetry.Sink for the traced node run.
// It forwards every call to a telemetry.Recorder, times the call, and
// tallies what the runtime reports. It only observes: the runtime sees
// the same sink behaviour as with the bare recorder, and telemetry on
// and off are bit-identical, so the traced run simulates exactly what
// the untraced one does.
type timedSink struct {
	rec  *telemetry.Recorder
	sim  *sim.Simulator
	offs *offsetSampler
	t    *layerTally
}

func (s *timedSink) since(t0 time.Time) { s.t.sinkNS += time.Since(t0).Nanoseconds() }

func (s *timedSink) BeginSession(label string) {
	defer s.since(time.Now())
	s.rec.BeginSession(label)
}

func (s *timedSink) RegisterBoard(name, class string) {
	defer s.since(time.Now())
	s.rec.RegisterBoard(name, class)
}

func (s *timedSink) RegisterNodeResource(resource string, allocatable float64) {
	defer s.since(time.Now())
	s.rec.RegisterNodeResource(resource, allocatable)
}

func (s *timedSink) RegisterBoardResource(board, resource string, allocatable float64) {
	defer s.since(time.Now())
	s.rec.RegisterBoardResource(board, resource, allocatable)
}

func (s *timedSink) StartSpan(at sim.Time, boundMS float64) *telemetry.Span {
	t0 := time.Now()
	sp := s.rec.StartSpan(at, boundMS)
	s.since(t0)
	s.offs.sample()
	return sp
}

func (s *timedSink) FinishSpan(sp *telemetry.Span, at sim.Time) {
	t0 := time.Now()
	s.rec.FinishSpan(sp, at)
	s.since(t0)
	// The recorder computed the stages; read them before the ring can
	// recycle the span.
	s.t.spans++
	if sp.Measured && !sp.Dropped {
		s.t.queue.Add(sp.Stages.QueueMS)
		s.t.exec.Add(sp.Stages.ExecMS)
		s.t.holdSum += sp.Stages.HoldMS
		s.t.transferSum += sp.Stages.TransferMS
		s.t.stageN++
	}
}

func (s *timedSink) PlanError(at sim.Time) {
	defer s.since(time.Now())
	s.rec.PlanError(at)
}

func (s *timedSink) PlanUpdate(cacheHit bool, energySwaps int) {
	t0 := time.Now()
	s.rec.PlanUpdate(cacheHit, energySwaps)
	s.since(t0)
	if !cacheHit {
		s.t.coldPlans++
		s.t.coldSwaps += energySwaps
	}
}

func (s *timedSink) BatchFlush(at sim.Time, size int, holdMS float64, reason string) {
	defer s.since(time.Now())
	s.rec.BatchFlush(at, size, holdMS, reason)
}

func (s *timedSink) RequestShed(at sim.Time) {
	defer s.since(time.Now())
	s.rec.RequestShed(at)
}

func (s *timedSink) TaskRetry(device, kernel string, at sim.Time) {
	defer s.since(time.Now())
	s.rec.TaskRetry(device, kernel, at)
}

func (s *timedSink) BoardHealthChanged(device, from, to string, at sim.Time) {
	defer s.since(time.Now())
	s.rec.BoardHealthChanged(device, from, to, at)
}

func (s *timedSink) GovernorTransition(at sim.Time, from, to, cause string) {
	defer s.since(time.Now())
	s.rec.GovernorTransition(at, from, to, cause)
}

func (s *timedSink) PowerSample(at sim.Time, watts float64) {
	defer s.since(time.Now())
	s.rec.PowerSample(at, watts)
}

func (s *timedSink) Launched(device, kernel, implID string, batch int, start, end sim.Time) {
	t0 := time.Now()
	s.rec.Launched(device, kernel, implID, batch, start, end)
	s.since(t0)
	s.t.pending = append(s.t.pending, float64(s.sim.Pending()))
}

func (s *timedSink) ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool) {
	defer s.since(time.Now())
	s.rec.ReconfigStart(device, implID, at, stallMS, background)
}

func (s *timedSink) DVFSChanged(device string, level int, at sim.Time) {
	defer s.since(time.Now())
	s.rec.DVFSChanged(device, level, at)
}

func (s *timedSink) BusyChanged(device string, busy int, at sim.Time) {
	defer s.since(time.Now())
	s.rec.BusyChanged(device, busy, at)
}

func (s *timedSink) PowerChanged(device string, watts float64, at sim.Time) {
	defer s.since(time.Now())
	s.rec.PowerChanged(device, watts, at)
}

func (s *timedSink) BitstreamResident(device, implID string, at sim.Time) {
	defer s.since(time.Now())
	s.rec.BitstreamResident(device, implID, at)
}

// launchObserver replaces a fleet shard's recorder as its boards'
// device observer and forwards every call to it, sampling the shard
// simulator's queue depth and its boards' queue offsets at each launch:
// a fleet shard reports admissions to its own recorder, so a launch is
// the nearest point the benchmark sees. Shards may run on different
// goroutines, so each shard gets its own observer and samples.
type launchObserver struct {
	rec     *telemetry.Recorder
	sim     *sim.Simulator
	offs    *offsetSampler
	pending []float64
}

func (o *launchObserver) Launched(device, kernel, implID string, batch int, start, end sim.Time) {
	o.rec.Launched(device, kernel, implID, batch, start, end)
	o.pending = append(o.pending, float64(o.sim.Pending()))
	o.offs.sample()
}

func (o *launchObserver) ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool) {
	o.rec.ReconfigStart(device, implID, at, stallMS, background)
}

func (o *launchObserver) DVFSChanged(device string, level int, at sim.Time) {
	o.rec.DVFSChanged(device, level, at)
}

// offsetReservoir is how many offset vectors a sampler keeps.
const offsetReservoir = 4096

// offsetSampler keeps a uniform reservoir of the queue offsets a node's
// planner sees: for each board, in shapeOf's order (GPUs, then FPGAs),
// how long from now until it can start new work, read as admission
// reads it. The replays draw their device states from these vectors.
type offsetSampler struct {
	node *cluster.Node
	rng  *rand.Rand
	seen int
	vecs [][]float64
}

func newOffsetSampler(node *cluster.Node) *offsetSampler {
	return &offsetSampler{node: node, rng: rand.New(rand.NewSource(1))}
}

func (o *offsetSampler) sample() {
	o.seen++
	i := len(o.vecs)
	if i >= offsetReservoir {
		if i = o.rng.Intn(o.seen); i >= offsetReservoir {
			return
		}
	}
	now := o.node.Sim.Now()
	v := make([]float64, 0, len(o.node.GPUs)+len(o.node.FPGAs))
	for _, g := range o.node.GPUs {
		v = append(v, float64(g.NextFreeAt()-now))
	}
	for _, f := range o.node.FPGAs {
		v = append(v, float64(f.NextFreeAt()-now))
	}
	if i == len(o.vecs) {
		o.vecs = append(o.vecs, v)
	} else {
		o.vecs[i] = v
	}
}

var (
	_ telemetry.Sink  = (*timedSink)(nil)
	_ device.Observer = (*launchObserver)(nil)
)
