// Package sim provides a deterministic discrete-event simulation core used
// by the device, runtime, and experiment layers of Poly.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// fire in (time, insertion-order) order, so runs are fully deterministic
// for a fixed seed and schedule. Time is measured in milliseconds, the
// natural unit of the paper's latency bounds (e.g. a 200 ms p99 target).
//
// Pending events are kept by value in two sources, so scheduling
// allocates nothing once they have grown: a FIFO run of events already
// sorted by (time, seq), and a flat 4-ary heap for everything else. An
// event joins the run when the run is empty or the event's time is at or
// after the run's tail; otherwise it goes on the heap. A serving run
// draws its whole arrival stream up front in time order, so thousands of
// pre-drawn arrivals sit in the run and pop in O(1), while the heap holds
// only the few events the run itself schedules. Every event keeps the seq
// AtCall gave it, and an event appended to the run has a time at or after
// the tail's and a larger seq, so the run stays sorted; Step fires the
// smaller of the run's head and the heap's root by the same (time, seq)
// order. The firing order is therefore exactly that of a single heap.
//
// A scheduled event cannot be cancelled: an owner whose event may go
// stale carries its own generation and ignores the event when it fires.
package sim

import "fmt"

// Time is a point in virtual time, in milliseconds since simulation start.
type Time float64

// Duration is a span of virtual time in milliseconds.
type Duration = Time

// String formats the time as milliseconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)) }

// event is one pending callback: fn(at, arg), ordered by (at, seq).
type event struct {
	at  Time
	seq uint64
	fn  func(Time, any)
	arg any
}

// Simulator is a single-threaded discrete-event simulator. The zero value
// is not usable; construct with New.
type Simulator struct {
	now  Time
	seq  uint64
	heap []event
	// run[head:] are the pending in-order events; run[:head] are fired
	// slots, already zeroed.
	run   []event
	head  int
	fired uint64
}

// New returns a simulator with the clock at zero and an empty event queue.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.heap) + len(s.run) - s.head }

// AtCall schedules fn(firingTime, arg) at absolute time at. Scheduling in
// the past (before Now) clamps to Now: the event fires next, without
// rewinding the clock. Passing a top-level function and a long-lived
// argument schedules without capturing, so the hot serving path creates
// no closure garbage.
func (s *Simulator) AtCall(at Time, fn func(Time, any), arg any) {
	if at < s.now {
		at = s.now
	}
	e := event{at: at, seq: s.seq, fn: fn, arg: arg}
	s.seq++
	if n := len(s.run); n == 0 || at >= s.run[n-1].at {
		if n == cap(s.run) && 2*s.head >= n {
			// Full with at least half of it fired: slide the pending
			// events down instead of growing, so the copy is paid for by
			// the pops that freed the space.
			m := copy(s.run, s.run[s.head:])
			clear(s.run[m:])
			s.run = s.run[:m]
			s.head = 0
		}
		s.run = append(s.run, e)
		return
	}
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

// AfterCall schedules fn(firingTime, arg) d milliseconds from now.
// Negative delays clamp to zero.
func (s *Simulator) AfterCall(d Duration, fn func(Time, any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtCall(s.now+d, fn, arg)
}

// At schedules action at absolute time at, with AtCall's past-clamp rule.
// The closure is the event's argument, so At suits cold paths and tests.
func (s *Simulator) At(at Time, action func()) { s.AtCall(at, runAction, action) }

// After schedules action d milliseconds from now (negative clamps to 0).
func (s *Simulator) After(d Duration, action func()) { s.AfterCall(d, runAction, action) }

func runAction(_ Time, a any) { a.(func())() }

// Step fires the single earliest event, advancing the clock to it. It
// returns false if the queue is empty.
func (s *Simulator) Step() bool {
	var e event
	if s.runFirst() {
		e = s.run[s.head]
		s.run[s.head] = event{} // drop the fired slot's references for the GC
		s.head++
		if s.head == len(s.run) {
			s.run = s.run[:0]
			s.head = 0
		}
	} else {
		n := len(s.heap) - 1
		if n < 0 {
			return false
		}
		e = s.heap[0]
		s.heap[0] = s.heap[n]
		s.heap[n] = event{} // drop the vacated slot's references for the GC
		s.heap = s.heap[:n]
		if n > 1 {
			s.siftDown(0)
		}
	}
	s.now = e.at
	s.fired++
	e.fn(s.now, e.arg)
	return true
}

// Run fires events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with firing time ≤ deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	for e := s.next(); e != nil && e.at <= deadline; e = s.next() {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// SeqMark returns the sequence number the next scheduled event will be
// assigned. Events already scheduled all have seq below the mark; events
// scheduled after the call all have seq at or above it. The fleet's
// drain snapshots the mark at run start to tell construction-time events
// apart from run-scheduled ones when both land on the same instant (see
// RunUntilBarrier).
func (s *Simulator) SeqMark() uint64 { return s.seq }

// RunUntilBarrier fires events strictly before deadline, plus events at
// exactly deadline whose sequence number is below mark, then advances
// the clock to deadline. It is the epoch-step primitive of the fleet's
// per-shard drain: with mark taken at run start (SeqMark), the events
// fired are exactly those that preceded a barrier event at (deadline,
// mark) in a shared-simulator run — pre-run events at the deadline fire,
// run-scheduled ones hold until after the barrier's owner (e.g. a
// routing decision) has run. Events at the deadline with seq >= mark
// stay queued and fire on the next advance past the deadline.
func (s *Simulator) RunUntilBarrier(deadline Time, mark uint64) {
	for e := s.next(); e != nil; e = s.next() {
		if e.at > deadline || (e.at == deadline && e.seq >= mark) {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// runFirst reports whether the earliest pending event is the run's head
// rather than the heap's root.
func (s *Simulator) runFirst() bool {
	return s.head < len(s.run) && (len(s.heap) == 0 || less(&s.run[s.head], &s.heap[0]))
}

// next returns the event Step would fire next, or nil if none is pending.
func (s *Simulator) next() *event {
	if s.runFirst() {
		return &s.run[s.head]
	}
	if len(s.heap) == 0 {
		return nil
	}
	return &s.heap[0]
}

// less orders pending events by (time, sequence number): strict FIFO
// among same-time events, independent of heap shape.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of i are 4i+1..4i+4. Wider nodes mean a
// shallower tree — fewer cache-missing levels per sift when many
// out-of-order events are pending (BenchmarkStepDeep).

func (s *Simulator) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
