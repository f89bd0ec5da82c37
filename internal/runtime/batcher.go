package runtime

// The admission-side cross-request batcher: a staging stage between
// arrival and planning that holds compatible requests so same-kernel GPU
// work lands in one launch and the scheduler sees the group as one load
// unit (PySchedCL-style clustering of concurrent data-parallel kernels,
// moved in front of the planner).
//
// Compatibility key: a server serves exactly one application, so every
// request shares one kernel DAG and one shape signature — the staging key
// is the program itself and one open group suffices. (A multi-program
// node would key groups per (kernel DAG, shape signature); the stage,
// budget, and flush logic below are unchanged by that generalization.)
//
// Hold budget: a staged request has spent none of its latency budget yet,
// and the last plan's makespan predicts how much serving will need, so
// the request can afford to wait about bound − makespan. The batcher
// spends at most batchSlackShare of that headroom — the rest stays
// reserved for queueing jitter, exactly like the planner's own slack
// factor — and never more than Options.BatchWaitMS. The group flushes at
// the EARLIEST deadline any member carries, so one tight request bounds
// the whole group's hold and batching can spend slack but never violate
// the bound by itself.
//
// Determinism: staging runs inside the single-threaded simulator — the
// group, its flush instant, and the submission order are pure functions
// of the arrival trace, so results are bit-identical at any
// internal/parallel pool size. Flush timers are generation-checked: a
// timer armed for a group that already flushed (cap reached, or a
// tighter deadline's timer fired first) is inert, so expiry racing group
// completion cannot double-flush.

import (
	"poly/internal/device"
	"poly/internal/sched"
	"poly/internal/sim"
)

const (
	// batchSlackShare is the fraction of a request's predicted remaining
	// latency slack the staging hold may spend.
	batchSlackShare = 0.5
	// defaultBatchCap bounds group sizes when the planner does not expose
	// a GPU batch capacity (the static baselines).
	defaultBatchCap = 8
	// admitWindowMS is the per-kernel in-queue accumulation window every
	// individually-admitted request carries (see admit). A staged request
	// spends this window in the staging hold instead: a flushed member
	// keeps only the unspent remainder, so the two accumulation stages
	// compose without ever waiting the same budget twice.
	admitWindowMS = 2.0
)

// planCoexecutable reports whether the plan routes any kernel through a
// batched GPU implementation — the only placements where staged members
// actually share launches. An application whose plans pick batch-1
// implementations everywhere (e.g. sequential-heavy kernels whose wide
// GPU variants lose on latency) gains nothing from staging: the group
// would hold, then serialize member-by-member anyway. The batcher gates
// itself on the live plan mix, so such loads admit straight through and
// staging resumes the moment the plan mix turns co-executable again.
func planCoexecutable(p *sched.Plan) bool {
	for i := range p.Assignments {
		if a := &p.Assignments[i]; a.Impl != nil && a.Impl.Platform == device.GPU && a.Impl.Config.Batch >= 2 {
			return true
		}
	}
	return false
}

// notePlan records a successful plan's staging-relevant facts: the
// makespan that prices the next hold budget, and — for genuine group
// plans only — whether the mix can co-execute (the staging gate read by
// fireAdmit). Single-request plans must not move the gate: their pricing
// carries no group-fill guarantee, so a batch-1 mix there says nothing
// about what a group would get. The gate reopens optimistically on
// governor-mode and board-health transitions (reprobeBatching): those
// are the events that change the plan mix, and one probe group settles
// it again. admit calls it for every successful plan while batching is
// on, single arrivals included, so the hold budget stays priced by the
// latest plan even while the gate is closed.
func (sv *Server) notePlan(p *sched.Plan, groupN int) {
	sv.lastPlanMS = p.MakespanMS
	if groupN >= 2 {
		sv.batchCoexec = planCoexecutable(p)
	}
}

// reprobeBatching reopens the staging gate so the next group's plan can
// re-decide co-executability under the new operating point. No-op (and
// unreachable effect) with batching off.
func (sv *Server) reprobeBatching() {
	if sv.batching {
		sv.batchCoexec = true
	}
}

// batchTimer is the pooled argument for a group's max-wait flush event.
// gen pins the timer to the group generation it was armed for.
type batchTimer struct {
	sv  *Server
	gen uint64
}

func fireBatchTimer(_ sim.Time, a any) {
	bt := a.(*batchTimer)
	sv, gen := bt.sv, bt.gen
	bt.sv = nil
	sv.timers.put(bt)
	if gen != sv.batchGen {
		return // that group already flushed or disbanded
	}
	sv.flushBatch("maxwait")
}

// stage holds one arrived request in the open admission group instead of
// admitting it immediately; planning and submission happen at flush. The
// request stays in pendingArrivals while staged, so Collect's drain loop
// keeps driving the simulator until the group lands.
func (sv *Server) stage() {
	now := sv.sim.Now()
	first := len(sv.batchArrivals) == 0
	sv.batchArrivals = append(sv.batchArrivals, now)
	if len(sv.batchArrivals) >= sv.batchCap {
		sv.flushBatch("full")
		return
	}
	deadline := now + sim.Time(sv.holdBudgetMS())
	if first || deadline < sv.batchDeadline {
		// Each member may tighten the group's deadline but never extend
		// it. Stale timers for the looser deadline stay scheduled and die
		// on the generation check.
		sv.batchDeadline = deadline
		bt := sv.timers.get()
		bt.sv, bt.gen = sv, sv.batchGen
		sv.sim.AtCall(deadline, fireBatchTimer, bt)
	}
}

// holdBudgetMS is the slack-budget rule (see the package comment above):
// min(BatchWaitMS, batchSlackShare × max(0, bound − last plan makespan)).
// Before any plan exists lastPlanMS is zero and the full shared bound
// applies.
func (sv *Server) holdBudgetMS() float64 {
	return min(sv.opts.BatchWaitMS, batchSlackShare*max(0, sv.opts.BoundMS-sv.lastPlanMS))
}

// takeBatch closes the open group and returns its members' arrival
// instants (nil when no group is open). The group is reset BEFORE its
// members are admitted: a member's submission can fail a board and
// re-enter the batcher through the health transition's disband hook,
// which must see no open group. The returned slice aliases the group's
// buffer, which nothing appends to until the next arrival event.
func (sv *Server) takeBatch() []sim.Time {
	arr := sv.batchArrivals
	if len(arr) == 0 {
		return nil
	}
	sv.batchGen++
	sv.batchArrivals = arr[:0]
	return arr
}

// holdSum is the members' total staging hold at now.
func holdSum(arr []sim.Time, now sim.Time) float64 {
	var sumMS float64
	for _, at := range arr {
		sumMS += float64(now - at)
	}
	return sumMS
}

// flushBatch admits the open group as one unit (see admit).
func (sv *Server) flushBatch(reason string) {
	if arr := sv.takeBatch(); arr != nil {
		sv.admit(arr, reason)
	}
}

// disbandBatch dissolves the open group without group planning: each
// member is admitted on its own at the current instant — against
// whatever the device and health view now is — with its original arrival
// time preserved. Called on every board-health transition; a no-op when
// no group is open (including always when batching is off).
func (sv *Server) disbandBatch() {
	arr := sv.takeBatch()
	if arr == nil {
		return
	}
	sv.batchDisbands++
	if sv.tel != nil {
		sv.tel.BatchFlush(sv.sim.Now(), len(arr), holdSum(arr, sv.sim.Now())/float64(len(arr)), "disband")
	}
	for i := range arr {
		sv.admit(arr[i:i+1], "")
	}
}
