package runtime

import "poly/internal/sim"

// Board health: the graceful-degradation half of fault injection. The
// runtime never reads the injector's ground truth — it infers board
// state the way a real serving node must, from failed tasks and from
// completions that deviate from the plan's prediction. Everything here
// is inert when no injector is attached: no hooks are installed, no task
// fails, every board stays healthy, and the serving path is bit-identical
// to a fault-free build (TestServeFaultsDisabledEquivalence).
//
// The state machine per board:
//
//	healthy --task failure--> down --backoff expires--> suspect
//	healthy --2 deviating completions--> suspect
//	suspect --5 clean completions--> healthy
//	suspect/down boards re-failing escalate the backoff exponentially
//
// Down boards are excluded from the scheduler's EST tables entirely;
// suspect boards stay schedulable but carry a fixed availability
// penalty, so the planner prefers proven-healthy capacity without
// starving a recovering board of the probe traffic it needs to clear
// probation. Every transition bumps the health epoch, which prefixes
// both planners' plan-cache keys — stale plans die with the epoch
// instead of needing an explicit flush.
const (
	healthHealthy = iota
	healthSuspect
	healthDown
)

const (
	// maxKernelRetries bounds re-placements per request before it is
	// dropped — unbounded retries under a correlated failure would melt
	// the survivors.
	maxKernelRetries = 3
	// backoffBaseMS/backoffCapMS shape the exponential probe backoff for
	// a failing board: 250, 500, 1000, ... capped at 8 s. A flapping
	// board is probed geometrically less often.
	backoffBaseMS = 250.0
	backoffCapMS  = 8000.0
	// suspectPenaltyMS is added to a suspect board's availability in the
	// scheduler's view. A fixed quantum (not a ratio) keeps the plan-
	// cache key space small while the penalty is in force.
	suspectPenaltyMS = 30.0
	// deviationFactor/deviationAbsMS gate the mispredict monitor: a
	// completion counts as deviating only when it lands beyond 3x the
	// plan's prediction AND more than 25 ms late in absolute terms. Both
	// thresholds sit far above the simulator's baseline service-time
	// perturbation and DVFS ratio effects, so fault-free runs never trip.
	deviationFactor = 3.0
	deviationAbsMS  = 25.0
	// deviationTrip consecutive deviations mark a board suspect;
	// probationRuns clean completions restore it.
	deviationTrip = 2
	probationRuns = 5
	// shedHeadroom discounts the bound during degraded admission: a
	// degraded node's EST tables underestimate real queueing (lost
	// capacity, retry traffic), so plans predicted to land in the top
	// 10 % of the budget are shed rather than risked as tail violations.
	shedHeadroom = 0.9
)

// boardHealth is the runtime's belief about one board (board.health).
type boardHealth struct {
	state int
	// failStreak counts down-transitions since the last full recovery;
	// it drives the exponential backoff.
	failStreak int
	// deviations / cleanRuns feed the mispredict monitor's hysteresis.
	deviations int
	cleanRuns  int
}

func healthName(s int) string {
	switch s {
	case healthSuspect:
		return "suspect"
	case healthDown:
		return "down"
	default:
		return "healthy"
	}
}

// degraded reports whether any board is currently non-healthy — the
// gate for admission shedding.
func (sv *Server) degraded() bool {
	healthy, _, _ := sv.BoardHealthCounts()
	return healthy < len(sv.boards)
}

// setHealth transitions one board's state. It advances the board-health
// generation, which the planner folds into its plan-cache key so every
// memoized plan dies with the old view, and emits telemetry.
func (sv *Server) setHealth(b *board, to int, at sim.Time) {
	from := b.health.state
	if from == to {
		return
	}
	b.health.state = to
	sv.healthEpoch++
	sv.planner.SetHealthEpoch(sv.healthEpoch)
	if sv.tel != nil {
		sv.tel.BoardHealthChanged(b.name, healthName(from), healthName(to), at)
	}
	// An admission group staged under the old health view must not submit
	// as one unit onto a changed board set: dissolve it, admitting each
	// member individually against the new epoch (no-op with no open group).
	sv.disbandBatch()
	// The surviving board set changes what a group plan can co-execute;
	// reopen the staging gate and let the next group re-decide.
	sv.reprobeBatching()
}

// markBoardFailed records a task loss on a board: the board goes down,
// leaves the EST tables, and a probe is scheduled after an exponential
// backoff. When the backoff expires the board re-enters planning as
// suspect (probation); if it fails again the streak doubles the next
// backoff — flapping boards are probed geometrically less often.
func (sv *Server) markBoardFailed(b *board, at sim.Time) {
	h := &b.health
	if h.state == healthDown {
		return // already known-down; one episode, one transition
	}
	h.failStreak++
	h.deviations = 0
	h.cleanRuns = 0
	sv.boardDownEvents++
	sv.setHealth(b, healthDown, at)
	backoff := backoffBaseMS * float64(int(1)<<min(h.failStreak-1, 5))
	if backoff > backoffCapMS {
		backoff = backoffCapMS
	}
	sv.sim.After(sim.Duration(backoff), func() {
		if h.state == healthDown {
			h.cleanRuns = 0
			sv.setHealth(b, healthSuspect, sv.sim.Now())
		}
	})
}

// observeCompletion is the monitor half of Fig. 2's feedback loop
// applied to faults: it compares each kernel's observed end-to-end
// progress against the plan's prediction. Sustained deviation marks the
// board suspect; sustained accuracy clears probation.
func (sv *Server) observeCompletion(b *board, predictedMS, observedMS float64, at sim.Time) {
	h := &b.health
	if h.state == healthDown {
		return
	}
	if observedMS > deviationFactor*predictedMS && observedMS-predictedMS > deviationAbsMS {
		h.deviations++
		h.cleanRuns = 0
		if h.deviations >= deviationTrip && h.state == healthHealthy {
			sv.setHealth(b, healthSuspect, at)
		}
		return
	}
	if h.deviations > 0 {
		h.deviations--
	}
	h.cleanRuns++
	if h.state == healthSuspect && h.cleanRuns >= probationRuns {
		h.failStreak = 0
		sv.setHealth(b, healthHealthy, at)
	}
}

// kernelFailed is a task's TaskFailed path: the board just lost this
// kernel. Mark the board, then either re-place the kernel on surviving
// capacity or — once the retry budget is spent or no device can host
// it — drop the request. The re-placement is written to the request's
// own assign slot, never the shared immutable plan.
func (r *request) kernelFailed(ki int32, board string, at sim.Time) {
	sv := r.sv
	if r.done {
		return
	}
	sv.taskFailures++
	sv.markBoardFailed(sv.byName[board], at)
	if r.retries >= maxKernelRetries {
		sv.failedRequests++
		r.finishRequest(false)
		return
	}
	r.retries++
	sv.retries++
	if r.span != nil {
		r.span.Retries = r.retries
	}
	kernel := sv.pi.names[ki]
	if sv.tel != nil {
		sv.tel.TaskRetry(board, kernel, at)
	}
	a, err := sv.planner.PlaceKernel(kernel, sv.deviceStates())
	if err != nil {
		sv.failedRequests++
		r.finishRequest(false)
		return
	}
	r.assign[ki] = a
	sv.intend(a)
	r.submit(ki)
	// submit just swapped in a fresh kernel record for the retry attempt;
	// tag it so stage attribution can carve the failure→restart window
	// out as retry time.
	if r.span != nil {
		if ks := r.ks[ki]; ks != nil {
			ks.Retried = true
			ks.RetryFromMS = float64(at)
		}
	}
}
