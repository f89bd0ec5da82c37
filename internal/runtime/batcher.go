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
	"poly/internal/telemetry"
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
// it again. Only called on paths that exist because batching is on.
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

func (sv *Server) acquireBatchTimer() *batchTimer {
	if n := len(sv.timerFree); n > 0 {
		bt := sv.timerFree[n-1]
		sv.timerFree = sv.timerFree[:n-1]
		return bt
	}
	return &batchTimer{}
}

func fireBatchTimer(_ sim.Time, a any) {
	bt := a.(*batchTimer)
	sv, gen := bt.sv, bt.gen
	bt.sv = nil
	sv.timerFree = append(sv.timerFree, bt)
	if gen != sv.batchGen {
		return // that group already flushed or disbanded
	}
	sv.flushBatch("maxwait")
}

// stage holds one arriving request in the open admission group instead of
// admitting it immediately. Arrival-side accounting — the arrival counts
// the governor's load estimate reads, and the low-power wake — happens
// here at the true arrival instant; planning and submission happen at
// flush. The request stays in pendingArrivals while staged, so Collect's
// drain loop keeps driving the simulator until the group lands.
func (sv *Server) stage() {
	sv.arrivals++
	sv.windowArrivals++
	if sv.lowPowerMode {
		for _, g := range sv.node.GPUs {
			g.SetDVFS(1)
		}
		sv.lowPowerMode = false
		sv.setGovernorMode("nominal", "arrival_wake")
	}
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
		bt := sv.acquireBatchTimer()
		bt.sv, bt.gen = sv, sv.batchGen
		sv.sim.AtCall(deadline, fireBatchTimer, bt)
	}
}

// holdBudgetMS is the slack-budget rule (see the package comment above):
// min(BatchWaitMS, batchSlackShare × max(0, bound − last plan makespan)).
// Before any plan exists lastPlanMS is zero and the full shared bound
// applies.
func (sv *Server) holdBudgetMS() float64 {
	slackMS := sv.opts.BoundMS - sv.lastPlanMS
	if slackMS < 0 {
		slackMS = 0
	}
	budget := batchSlackShare * slackMS
	if budget > sv.opts.BatchWaitMS {
		budget = sv.opts.BatchWaitMS
	}
	return budget
}

// flushBatch plans the open group as one unit and submits every member at
// the current instant. The members share one sealed plan — safe because
// plans are immutable and retries rebase into request-private slots — and
// submit back-to-back, so their same-kernel GPU tasks coalesce into
// shared launches with no further in-queue accumulation (windowMS 0).
func (sv *Server) flushBatch(reason string) {
	n := len(sv.batchArrivals)
	if n == 0 {
		return
	}
	sv.batchGen++
	arr := sv.batchArrivals[:n]
	// Reset the open group BEFORE submitting: a member's submission can
	// fail a board and re-enter the batcher through the health
	// transition's disband hook, which must see no open group.
	sv.batchArrivals = sv.batchArrivals[:0]
	now := sv.sim.Now()

	// One plan for the whole group, with the group size fed to the
	// scheduler: batched GPU variants are guaranteed n requests per
	// launch, so the plan prices launch sharing as certainty instead of a
	// load-estimate gamble. The hint is reset immediately — it is part of
	// the plan-cache key, and single-request admissions must not alias
	// group plans.
	sc, _ := sv.planner.(*sched.Scheduler)
	if sc != nil {
		sc.SetBatchSize(n)
	}
	degraded := sv.injector != nil && sv.degraded()
	plan, err := sv.planner.Schedule(sv.deviceStates(), sv.opts.BoundMS)
	if sc != nil {
		sc.SetBatchSize(1)
	}
	if err != nil {
		// The whole group fails planning: account every member exactly as
		// an individual admission would.
		for range arr {
			sv.pendingArrivals--
			if degraded {
				sv.shed++
				if sv.tel != nil {
					sv.tel.RequestShed(now)
				}
				continue
			}
			sv.planErrors++
			if sv.tel != nil {
				sv.tel.PlanError(now)
			}
		}
		return
	}
	if degraded && plan.MakespanMS > shedHeadroom*sv.opts.BoundMS {
		for range arr {
			sv.pendingArrivals--
			sv.shed++
			if sv.tel != nil {
				sv.tel.RequestShed(now)
			}
		}
		return
	}
	sv.notePlan(plan, n)

	var holdSumMS float64
	for _, at := range arr {
		holdSumMS += float64(now - at)
	}
	sv.batchGroups++
	sv.batchedRequests += n
	sv.batchHoldSumMS += holdSumMS
	if n > sv.maxBatchSize {
		sv.maxBatchSize = n
	}
	var hit bool
	if sv.tel != nil {
		hits, _ := sv.PlannerCacheStats()
		hit = hits > sv.lastCacheHits
		sv.lastCacheHits = hits
		sv.tel.PlanUpdate(hit, plan.EnergySwaps)
		sv.tel.BatchFlush(now, n, holdSumMS/float64(n), reason)
	}
	for _, at := range arr {
		sv.pendingArrivals--
		hold := float64(now - at)
		win := admitWindowMS - hold
		if win < 0 {
			win = 0
		}
		var span *telemetry.Span
		if sv.tel != nil {
			span = sv.tel.StartSpan(at, sv.opts.BoundMS)
			span.CacheHit = hit
			span.PlanMakespanMS = plan.MakespanMS
			span.EnergySwaps = plan.EnergySwaps
			span.Batched = true
			span.BatchSize = n
			span.HoldMS = hold
		}
		sv.startRequest(at, plan, span, win)
	}
}

// disbandBatch dissolves the open group without group planning: each
// member is admitted individually at the current instant — against
// whatever the device and health view now is — with its original arrival
// time preserved. Called on every board-health transition; a no-op when
// no group is open (including always when batching is off).
func (sv *Server) disbandBatch() {
	n := len(sv.batchArrivals)
	if n == 0 {
		return
	}
	sv.batchGen++
	sv.batchDisbands++
	arr := sv.batchArrivals[:n]
	sv.batchArrivals = sv.batchArrivals[:0]
	now := sv.sim.Now()
	if sv.tel != nil {
		var holdSumMS float64
		for _, at := range arr {
			holdSumMS += float64(now - at)
		}
		sv.tel.BatchFlush(now, n, holdSumMS/float64(n), "disband")
	}
	for _, at := range arr {
		sv.admitHeld(at)
	}
}

// admitHeld admits one former group member individually: admit() minus
// the arrival-side accounting stage() already performed, with the
// request's true arrival instant preserved so its latency includes the
// time it was staged.
func (sv *Server) admitHeld(arrivedAt sim.Time) {
	sv.pendingArrivals--
	degraded := sv.injector != nil && sv.degraded()
	plan, err := sv.planner.Schedule(sv.deviceStates(), sv.opts.BoundMS)
	if err != nil {
		if degraded {
			sv.shed++
			if sv.tel != nil {
				sv.tel.RequestShed(sv.sim.Now())
			}
			return
		}
		sv.planErrors++
		if sv.tel != nil {
			sv.tel.PlanError(sv.sim.Now())
		}
		return
	}
	if degraded && plan.MakespanMS > shedHeadroom*sv.opts.BoundMS {
		sv.shed++
		if sv.tel != nil {
			sv.tel.RequestShed(sv.sim.Now())
		}
		return
	}
	sv.notePlan(plan, 1)
	var span *telemetry.Span
	if sv.tel != nil {
		hits, _ := sv.PlannerCacheStats()
		hit := hits > sv.lastCacheHits
		sv.lastCacheHits = hits
		sv.tel.PlanUpdate(hit, plan.EnergySwaps)
		span = sv.tel.StartSpan(arrivedAt, sv.opts.BoundMS)
		span.CacheHit = hit
		span.PlanMakespanMS = plan.MakespanMS
		span.EnergySwaps = plan.EnergySwaps
		span.HoldMS = float64(sv.sim.Now() - arrivedAt)
	}
	sv.startRequest(arrivedAt, plan, span, admitWindowMS)
}
