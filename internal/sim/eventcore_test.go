package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference oracle: a verbatim container/heap event queue with one
// allocation per event. The run-plus-heap core must fire the exact same
// callbacks in the exact same order.
// ---------------------------------------------------------------------------

type oracleEvent struct {
	at     Time
	seq    uint64
	action func()
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }

func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *oracleQueue) Push(x any) { *q = append(*q, x.(*oracleEvent)) }

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type oracleSim struct {
	now   Time
	seq   uint64
	queue oracleQueue
	fired uint64
}

func (s *oracleSim) At(at Time, action func()) {
	if at < s.now {
		at = s.now
	}
	heap.Push(&s.queue, &oracleEvent{at: at, seq: s.seq, action: action})
	s.seq++
}

func (s *oracleSim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*oracleEvent)
	s.now = e.at
	s.fired++
	e.action()
	return true
}

func (s *oracleSim) Run() {
	for s.Step() {
	}
}

func (s *oracleSim) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *oracleSim) RunUntilBarrier(deadline Time, mark uint64) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > deadline || (e.at == deadline && e.seq >= mark) {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ---------------------------------------------------------------------------
// Scripted dual-drive: a random source generates an op script that is
// replayed against both cores. Each scheduled event logs its ID and firing
// time and schedules children, sometimes in the past (exercising the
// clamp). Times are offsets from the clock on a 10 ms grid, so
// same-instant ties, and barriers exactly on an event's instant, are
// common. A monotone burst schedules a strictly increasing stream far
// ahead, the way an injector pre-draws arrivals, so the in-order run
// grows deep, ties between its head and the heap's root are common, and
// it drains, resets and compacts under the dynamic ops.
// ---------------------------------------------------------------------------

const (
	opSchedule = iota // schedule a root event at now+at
	opRun             // drain the queue
	opRunUntil        // RunUntil(now+at)
	opStep            // Step once
	opMark            // snapshot SeqMark, as the fleet drain does at run start
	opBarrier         // RunUntilBarrier(now+at, last mark)
	opBurst           // schedule children leaves at now+at+i*stride
)

type scriptOp struct {
	kind     int
	at       Time // schedule time / deadline, as an offset from now
	children int  // events the callback schedules, at now+deltas[i]; burst length
	deltas   [3]Time
	stride   Time // burst spacing
}

// gridTime maps u in [0, 1) onto the 10 ms grid over [lo, hi).
func gridTime(u, lo, hi float64) Time {
	return Time(10 * float64(int((lo+(hi-lo)*u)/10)))
}

// genScript draws n ops from next, a source of values in [0, 1).
func genScript(next func() float64, n int) []scriptOp {
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		var op scriptOp
		switch r := next(); {
		case r < 0.05:
			op.kind = opBurst
			op.at = gridTime(next(), 200, 600)
			op.children = 1 + int(next()*48)
			op.stride = 10 + gridTime(next(), 0, 30)
		case r < 0.55:
			op.kind = opSchedule
			// Negative offsets exercise the past-clamp path.
			op.at = gridTime(next(), -20, 200)
			op.children = int(next() * 3.5)
			for j := range op.deltas {
				op.deltas[j] = gridTime(next(), -40, 120)
			}
		case r < 0.62:
			op.kind = opRun
		case r < 0.75:
			op.kind = opRunUntil
			op.at = gridTime(next(), 0, 200)
		case r < 0.83:
			op.kind = opStep
		case r < 0.88:
			op.kind = opMark
		default:
			op.kind = opBarrier
			op.at = gridTime(next(), 0, 200)
		}
		ops = append(ops, op)
	}
	return ops
}

// coreDriver replays a script against one of the two cores through a
// minimal schedule/run facade, recording the firing log.
type coreDriver struct {
	log      []string
	nextID   int
	mark     uint64
	schedule func(at Time, action func())
	run      func()
	runUntil func(Time)
	barrier  func(Time, uint64)
	step     func() bool
	seqMark  func() uint64
	now      func() Time
	pending  func() int
	fired    func() uint64
}

func (d *coreDriver) fire(id int, op scriptOp) {
	d.log = append(d.log, fmt.Sprintf("%d@%v", id, d.now()))
	for c := 0; c < op.children; c++ {
		cid := d.nextID
		d.nextID++
		d.schedule(d.now()+op.deltas[c], func() { d.fire(cid, scriptOp{}) }) // children are leaves
	}
}

func (d *coreDriver) apply(op scriptOp) {
	switch op.kind {
	case opSchedule:
		id := d.nextID
		d.nextID++
		d.schedule(d.now()+op.at, func() { d.fire(id, op) })
	case opRun:
		d.run()
	case opRunUntil:
		d.runUntil(d.now() + op.at)
	case opStep:
		d.log = append(d.log, fmt.Sprintf("step=%v", d.step()))
	case opMark:
		d.mark = d.seqMark()
		d.log = append(d.log, fmt.Sprintf("mark=%d", d.mark))
	case opBarrier:
		d.barrier(d.now()+op.at, d.mark)
	case opBurst:
		base := d.now() + op.at
		for i := 0; i < op.children; i++ {
			id := d.nextID
			d.nextID++
			d.schedule(base+Time(i)*op.stride, func() { d.fire(id, scriptOp{}) })
		}
	}
}

func newCoreDriver(s *Simulator) *coreDriver {
	return &coreDriver{
		schedule: s.At,
		run:      s.Run,
		runUntil: s.RunUntil,
		barrier:  s.RunUntilBarrier,
		step:     s.Step,
		seqMark:  s.SeqMark,
		now:      s.Now,
		pending:  s.Pending,
		fired:    s.Fired,
	}
}

func newOracleDriver(o *oracleSim) *coreDriver {
	return &coreDriver{
		schedule: o.At,
		run:      o.Run,
		runUntil: o.RunUntil,
		barrier:  o.RunUntilBarrier,
		step:     o.Step,
		seqMark:  func() uint64 { return o.seq },
		now:      func() Time { return o.now },
		pending:  func() int { return len(o.queue) },
		fired:    func() uint64 { return o.fired },
	}
}

// checkAgainstOracle replays script on both cores, comparing clock,
// queue depth and fired count after every op and the complete firing
// logs after a final drain.
func checkAgainstOracle(t *testing.T, name string, script []scriptOp) {
	t.Helper()
	dc, do := newCoreDriver(New()), newOracleDriver(&oracleSim{})
	for i, op := range script {
		dc.apply(op)
		do.apply(op)
		if dc.now() != do.now() {
			t.Fatalf("%s op %d: clock %v vs oracle %v", name, i, dc.now(), do.now())
		}
		if dc.pending() != do.pending() {
			t.Fatalf("%s op %d: pending %d vs oracle %d", name, i, dc.pending(), do.pending())
		}
		if dc.fired() != do.fired() {
			t.Fatalf("%s op %d: fired %d vs oracle %d", name, i, dc.fired(), do.fired())
		}
	}
	dc.run()
	do.run()
	if len(dc.log) != len(do.log) {
		t.Fatalf("%s: log length %d vs oracle %d", name, len(dc.log), len(do.log))
	}
	for i := range dc.log {
		if dc.log[i] != do.log[i] {
			t.Fatalf("%s: log[%d] = %q vs oracle %q", name, i, dc.log[i], do.log[i])
		}
	}
	if dc.pending() != 0 || do.pending() != 0 {
		t.Fatalf("%s: drained pending %d/%d, want 0", name, dc.pending(), do.pending())
	}
}

func TestEventCoreMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), genScript(NewRNG(seed).Float64, 400))
	}
}

// FuzzEventCore feeds fuzz bytes, read cyclically as values in [0, 1),
// to the oracle test's script generator: one op per input byte, at most
// 400.
func FuzzEventCore(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x10\x80\x20\x90\xf0\x30\xe0\xd0\x05\xc0"))
	f.Add([]byte("\x00\x40\x00\x00\x00\x00\xe8\x7f\xe8\x80\xd8\xe8\x80\x70"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() float64 {
			b := data[i%len(data)]
			i++
			return float64(b) / 256
		}
		checkAgainstOracle(t, "fuzz", genScript(next, min(len(data), 400)))
	})
}

func TestArenaAtCallMatchesAt(t *testing.T) {
	// AtCall must interleave with At in strict (time, seq) order.
	s := New()
	var got []int
	type tag struct{ id int }
	s.At(10, func() { got = append(got, 1) })
	s.AtCall(10, func(_ Time, a any) { got = append(got, a.(*tag).id) }, &tag{id: 2})
	s.AtCall(5, func(_ Time, a any) { got = append(got, a.(*tag).id) }, &tag{id: 0})
	s.At(10, func() { got = append(got, 3) })
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed At/AtCall order: %v", got)
		}
	}
}

func TestMonotoneStreamBypassesHeap(t *testing.T) {
	// An in-order stream, with ties, must land in the run, not the heap:
	// this is how pre-drawn arrivals stay out of the heap.
	const n = 5000
	s := New()
	fn := func(Time, any) {}
	for i := 0; i < n; i++ {
		s.AtCall(Time(i/3), fn, nil)
	}
	if len(s.heap) != 0 || s.Pending() != n {
		t.Fatalf("monotone stream: heap holds %d, pending %d; want 0 and %d", len(s.heap), s.Pending(), n)
	}
	// A stream that keeps topping itself up at the tail while it fires
	// must settle into compacting in place rather than grow without
	// bound: it grows until it holds about twice its live events, then
	// stops.
	top := func(from int) {
		for i := from; i < from+20*n; i++ {
			s.Step()
			s.AtCall(Time(n+i), fn, nil)
		}
	}
	top(0)
	limit := cap(s.run)
	top(20 * n)
	if len(s.heap) != 0 || s.Pending() != n || cap(s.run) != limit || limit > 4*n {
		t.Fatalf("topped-up stream: heap %d, pending %d, cap %d (was %d); want 0, %d, unchanged and ≤ %d",
			len(s.heap), s.Pending(), cap(s.run), limit, n, 4*n)
	}
	// Fired and vacated slots hold no references for the GC.
	for i, e := range s.run[:cap(s.run)] {
		if (i < s.head || i >= len(s.run)) && e.fn != nil {
			t.Fatalf("slot %d outside run[%d:%d] still holds its callback", i, s.head, len(s.run))
		}
	}
	s.Run()
	if s.Pending() != 0 || len(s.run) != 0 || s.head != 0 {
		t.Fatalf("drained run: pending %d, len %d, head %d", s.Pending(), len(s.run), s.head)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	var sink int
	fn := func(Time, any) { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtCall(s.Now()+1, fn, nil)
		s.Step()
	}
	_ = sink
}

// BenchmarkStepDeep measures one Step plus one reschedule with 6,000
// events pending in random time order, so nearly all of them sit in the
// heap. A serving run's pre-drawn arrivals no longer reach the heap
// (BenchmarkStepArrivals).
func BenchmarkStepDeep(b *testing.B) {
	const depth = 6000
	s := New()
	rng := NewRNG(1)
	var delays [1024]Duration
	for i := range delays {
		delays[i] = Duration(rng.Exp(50))
	}
	fn := func(Time, any) {}
	for i := 0; i < depth; i++ {
		s.AfterCall(delays[i%len(delays)]*Duration(1+i%7), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		s.AfterCall(delays[i%len(delays)], fn, nil)
	}
}

// BenchmarkStepArrivals measures one Step behind 12,000 pending in-order
// arrivals, the shape of a node-steady run: the whole arrival stream is
// drawn up front, and each arrival schedules a dynamic follow-up a short,
// random delay ahead. Each fired arrival appends one more at the stream's
// tail, so the depth holds for any b.N.
func BenchmarkStepArrivals(b *testing.B) {
	const (
		depth = 12000
		gap   = 2 // ms between arrivals
	)
	s := New()
	rng := NewRNG(1)
	var delays [1024]Duration
	for i := range delays {
		delays[i] = Duration(rng.Exp(10))
	}
	var tail Time
	var k int
	follow := func(Time, any) {}
	var arrive func(Time, any)
	arrive = func(now Time, _ any) {
		tail += gap
		s.AtCall(tail, arrive, nil)
		s.AtCall(now+delays[k%len(delays)], follow, nil)
		k++
	}
	for i := 0; i < depth; i++ {
		tail += gap
		s.AtCall(tail, arrive, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
