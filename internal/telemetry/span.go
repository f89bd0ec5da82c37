package telemetry

import "math"

// KernelSpan is one kernel execution inside a request span: where it was
// placed and how its time split between queueing and service.
type KernelSpan struct {
	Kernel string
	Device string
	ImplID string
	// QueuedMS is when the runtime submitted the task to its device.
	QueuedMS float64
	// StartMS is when the device began executing it (its launch/initiation
	// instant); EndMS is its completion. A record whose EndMS never passed
	// StartMS is a failed attempt (the board lost the task) and is excluded
	// from histograms and stage attribution.
	StartMS float64
	EndMS   float64
	// Retried marks a record created by a kernel re-placement after a
	// device task failure; RetryFromMS is the failure instant, so
	// [RetryFromMS, StartMS] is the backoff-and-requeue window the retry
	// stage attributes.
	Retried     bool
	RetryFromMS float64
}

// QueueMS is the time the task waited behind the device queue (including
// batching windows and foreground reconfiguration).
func (k *KernelSpan) QueueMS() float64 { return k.StartMS - k.QueuedMS }

// ServiceMS is the pure execution span.
func (k *KernelSpan) ServiceMS() float64 { return k.EndMS - k.StartMS }

// Interval is a half-open [StartMS, EndMS) slice of simulated time.
type Interval struct{ StartMS, EndMS float64 }

// Stage indices of the fixed latency breakdown. Order is the canonical
// summation order of StageBreakdown.SumMS.
const (
	StageHold = iota
	StagePlan
	StageExec
	StageTransfer
	StageRetry
	StageQueue
	NumStages
)

// StageNames maps stage indices to their metric label values.
var StageNames = [NumStages]string{"hold", "plan", "exec", "transfer", "retry", "queue"}

// StageBreakdown is a request's end-to-end latency split into fixed
// stages. The invariant — enforced by ComputeStages and tested — is that
// SumMS() equals Span.LatencyMS bit-exactly.
//
//   - HoldMS: admission-batch staging (copied from Span.HoldMS).
//   - PlanMS: planning time. The simulator plans instantaneously, so this
//     is 0 today; it is part of the fixed shape so the exposition and the
//     fleet router never change schema when planning gains a cost model.
//   - ExecMS: union of the kernels' device execution intervals.
//   - TransferMS: union of inter-device PCIe transfer intervals not
//     already covered by execution (a transfer overlapping a concurrent
//     kernel is attributed to exec).
//   - RetryMS: union of failure→restart windows not covered by exec or
//     transfer.
//   - QueueMS: the remainder — device queueing and DAG dependency stalls.
//     Computed as LatencyMS minus the other stages and then nudged by
//     ULPs so the canonical sum reproduces LatencyMS exactly.
type StageBreakdown struct {
	HoldMS     float64
	PlanMS     float64
	ExecMS     float64
	TransferMS float64
	RetryMS    float64
	QueueMS    float64
}

// SumMS adds the stages in the canonical order the QueueMS remainder was
// solved against: ((((hold+plan)+exec)+transfer)+retry)+queue.
func (b *StageBreakdown) SumMS() float64 {
	return ((((b.HoldMS + b.PlanMS) + b.ExecMS) + b.TransferMS) + b.RetryMS) + b.QueueMS
}

// Get returns the stage value at a StageNames index.
func (b *StageBreakdown) Get(stage int) float64 {
	switch stage {
	case StageHold:
		return b.HoldMS
	case StagePlan:
		return b.PlanMS
	case StageExec:
		return b.ExecMS
	case StageTransfer:
		return b.TransferMS
	case StageRetry:
		return b.RetryMS
	default:
		return b.QueueMS
	}
}

// Span follows one request from admission through its kernel DAG to
// completion. The runtime owns and fills it; FinishSpan hands it to the
// recorder's bounded ring. Spans evicted from the ring are recycled, so
// a Spans() snapshot is only valid until enough newer requests finish to
// wrap the ring.
type Span struct {
	ID uint64
	// ArrivedMS is the admission instant; BoundMS the QoS bound the
	// request was planned against.
	ArrivedMS float64
	BoundMS   float64
	// PlanMakespanMS is the planner's predicted end-to-end latency;
	// CacheHit records whether the plan came from the plan cache, and
	// EnergySwaps how many Step-2 implementation swaps it carries.
	PlanMakespanMS float64
	CacheHit       bool
	EnergySwaps    int
	// LatencyMS is the observed end-to-end latency; Violation whether it
	// exceeded the bound; Measured whether the request is post-warmup
	// (part of the QoS population); Dropped whether the request was
	// abandoned mid-flight (e.g. a plan referenced an unknown device).
	LatencyMS float64
	Violation bool
	Measured  bool
	Dropped   bool
	// Retries counts kernel re-placements the request survived after
	// device task failures; a dropped request with Retries > 0 exhausted
	// its retry budget.
	Retries int
	// Batched marks a request that was planned and submitted as part of
	// an admission-batch group; BatchSize is that group's size and HoldMS
	// how long this request was staged before the group flushed. A
	// disbanded group member is admitted individually (Batched false)
	// but still carries its HoldMS.
	Batched   bool
	BatchSize int
	HoldMS    float64
	// Stages is the fixed latency breakdown, filled by ComputeStages when
	// the span finishes (zero for dropped spans).
	Stages StageBreakdown
	// Transfers are the inter-device PCIe transfer windows the request's
	// DAG edges crossed, in completion order.
	Transfers []Interval
	// Kernels are the per-kernel placements, in submission order. Entries
	// are pointers so a record handed out by AddKernel stays valid while
	// later submissions grow the slice.
	Kernels []*KernelSpan

	sweep []stagePoint // scratch for ComputeStages, reused across recycles
}

// AddKernel appends a kernel record and returns it for the runtime to
// fill in start/end as the device reports them. Recycled spans reuse the
// KernelSpan allocations left in the backing array by earlier requests.
func (s *Span) AddKernel(kernel, device, implID string, queuedMS float64) *KernelSpan {
	n := len(s.Kernels)
	if n < cap(s.Kernels) {
		s.Kernels = s.Kernels[:n+1]
		if k := s.Kernels[n]; k != nil {
			*k = KernelSpan{Kernel: kernel, Device: device, ImplID: implID, QueuedMS: queuedMS}
			return k
		}
	} else {
		s.Kernels = append(s.Kernels, nil)
	}
	k := &KernelSpan{Kernel: kernel, Device: device, ImplID: implID, QueuedMS: queuedMS}
	s.Kernels[n] = k
	return k
}

// AddTransfer records one inter-device transfer window.
func (s *Span) AddTransfer(startMS, endMS float64) {
	s.Transfers = append(s.Transfers, Interval{StartMS: startMS, EndMS: endMS})
}

// AdmitWaitMS is the time from admission until the first kernel started
// executing — how long the request sat before any device picked it up.
func (s *Span) AdmitWaitMS() float64 {
	first := -1.0
	for _, k := range s.Kernels {
		if first < 0 || k.StartMS < first {
			first = k.StartMS
		}
	}
	if first < 0 {
		return 0
	}
	return first - s.ArrivedMS
}

// reset re-initializes a recycled span, keeping the kernel, transfer,
// and sweep backing arrays.
func (s *Span) reset(id uint64, arrivedMS, boundMS float64) {
	*s = Span{
		ID: id, ArrivedMS: arrivedMS, BoundMS: boundMS,
		Kernels:   s.Kernels[:0],
		Transfers: s.Transfers[:0],
		sweep:     s.sweep[:0],
	}
}

// stagePoint is one interval boundary for the ComputeStages sweep.
type stagePoint struct {
	t     float64
	class int8 // 0 exec, 1 transfer, 2 retry — lower wins overlaps
	delta int8 // +1 open, -1 close
}

// ComputeStages fills s.Stages from the span's kernel, transfer, and
// retry records. Overlapping intervals are attributed once, to the
// highest-priority active stage (exec > transfer > retry), via a
// boundary sweep; QueueMS is the remainder, ULP-corrected so that
// Stages.SumMS() == s.LatencyMS bit-exactly.
func (s *Span) ComputeStages() {
	pts := s.sweep[:0]
	for _, k := range s.Kernels {
		if k.EndMS > k.StartMS {
			pts = append(pts,
				stagePoint{t: k.StartMS, class: 0, delta: 1},
				stagePoint{t: k.EndMS, class: 0, delta: -1})
		}
		if k.Retried && k.StartMS > k.RetryFromMS && k.EndMS > k.StartMS {
			pts = append(pts,
				stagePoint{t: k.RetryFromMS, class: 2, delta: 1},
				stagePoint{t: k.StartMS, class: 2, delta: -1})
		}
	}
	for _, tr := range s.Transfers {
		if tr.EndMS > tr.StartMS {
			pts = append(pts,
				stagePoint{t: tr.StartMS, class: 1, delta: 1},
				stagePoint{t: tr.EndMS, class: 1, delta: -1})
		}
	}
	s.sweep = pts
	// Insertion sort by time: point counts are small (2 per interval) and
	// this keeps the hot path allocation-free.
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		j := i - 1
		for j >= 0 && pts[j].t > p.t {
			pts[j+1] = pts[j]
			j--
		}
		pts[j+1] = p
	}
	var exec, transfer, retry float64
	var active [3]int
	prev := 0.0
	for i := 0; i < len(pts); {
		t := pts[i].t
		if i > 0 {
			seg := t - prev
			switch {
			case active[0] > 0:
				exec += seg
			case active[1] > 0:
				transfer += seg
			case active[2] > 0:
				retry += seg
			}
		}
		for i < len(pts) && pts[i].t == t {
			active[pts[i].class] += int(pts[i].delta)
			i++
		}
		prev = t
	}
	b := StageBreakdown{HoldMS: s.HoldMS, PlanMS: 0,
		ExecMS: exec, TransferMS: transfer, RetryMS: retry}
	// Solve QueueMS as the remainder, then correct by result error until
	// the canonical sum reproduces LatencyMS exactly. The correction
	// usually converges in a step or two: partial and target are within a
	// factor of two once q is added, so the error subtraction is exact
	// (Sterbenz) and each iteration cancels the remaining rounding. The
	// one unreachable case is a round-to-even tie (breakTie).
	q, ok := solveQueueRemainder(&b, s.LatencyMS)
	if !ok {
		q = b.breakTie(s.LatencyMS, q)
	}
	b.QueueMS = q
	s.Stages = b
}

// breakTie handles the round-to-even tie: when every candidate sum lands
// exactly half a ULP from latency, stepping q oscillates around the
// target forever. Moving the partial sum by any amount under a ULP of
// latency takes it off the tie, so it nudges one measured stage
// (invisibly at millisecond scale) and solves again: first the largest
// down by its own ULP; and when a tie inside the partial sum absorbs
// that, each stage in turn by one and by half a ULP of the partial sum.
func (b *StageBreakdown) breakTie(latency, q float64) float64 {
	measured := [...]*float64{&b.HoldMS, &b.ExecMS, &b.TransferMS, &b.RetryMS}
	largest := measured[0]
	for _, v := range measured[1:] {
		if *v > *largest {
			largest = v
		}
	}
	partial := (((b.HoldMS + b.PlanMS) + b.ExecMS) + b.TransferMS) + b.RetryMS
	u := partial - math.Nextafter(partial, math.Inf(-1))
	ok := false
	for try := -1; !ok && try < 4*len(measured); try++ {
		v, to := largest, math.Nextafter(*largest, math.Inf(-1))
		if try >= 0 {
			v, to = measured[try/4], *measured[try/4]+[...]float64{-u, u, -u / 2, u / 2}[try%4]
		}
		if was := *v; was > 0 && to >= 0 {
			*v = to
			if q, ok = solveQueueRemainder(b, latency); !ok {
				*v = was
			}
		}
	}
	return q
}

// solveQueueRemainder finds q so the canonical stage sum reproduces
// latency bit-exactly, reporting false if the iteration cannot land (a
// rounding tie — see ComputeStages).
func solveQueueRemainder(b *StageBreakdown, latency float64) (float64, bool) {
	partial := (((b.HoldMS + b.PlanMS) + b.ExecMS) + b.TransferMS) + b.RetryMS
	q := latency - partial
	for i := 0; i < 16; i++ {
		got := partial + q
		if got == latency {
			return q, true
		}
		nq := q + (latency - got)
		if nq == q {
			// The residual is below q's ULP (the subtraction was exact but
			// too small to land, or rounded to zero): step one ULP instead.
			if got > latency {
				nq = math.Nextafter(q, math.Inf(-1))
			} else {
				nq = math.Nextafter(q, math.Inf(1))
			}
		}
		q = nq
	}
	return q, false
}

// SpanRing is a bounded ring of finished spans: the newest cap spans are
// retained, older ones overwritten. It gives an operator the tail of the
// request history without unbounded memory.
type SpanRing struct {
	buf   []*Span
	next  int
	total int
}

// NewSpanRing returns a ring holding up to cap spans (minimum 1).
func NewSpanRing(cap int) *SpanRing {
	if cap < 1 {
		cap = 1
	}
	return &SpanRing{buf: make([]*Span, 0, cap)}
}

// PushEvict records a finished span and returns the span it displaced
// (nil while the ring is filling) so the owner can recycle it.
func (r *SpanRing) PushEvict(s *Span) *Span {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return nil
	}
	old := r.buf[r.next]
	r.buf[r.next] = s
	r.next = (r.next + 1) % cap(r.buf)
	return old
}

// Total returns how many spans were ever pushed.
func (r *SpanRing) Total() int { return r.total }

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []*Span {
	out := make([]*Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
