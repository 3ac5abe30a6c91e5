package ulba

import (
	"ulba/internal/lb"
	"ulba/internal/schedule"
)

// RuntimeTrigger is the per-run trigger state machine the load-balancing
// runner drives: it observes each iteration's wall time and decides, against
// the measured LB-cost threshold, when the balancer fires. Implementations
// must be deterministic functions of the observed values — LB calls are
// collective, so every PE must reach the same decision.
type RuntimeTrigger = lb.Trigger

// A Trigger decides *at runtime* when to balance. It is the reactive
// counterpart of a Planner: instead of precomputing a schedule from the
// analytic model, it watches the measured iteration times. A Trigger value
// is a factory: every rank of a run calls New once for a fresh, independent
// state machine.
type Trigger interface {
	// Name identifies the trigger, matching its registry key.
	Name() string
	// New returns a fresh runtime state machine.
	New() RuntimeTrigger
}

// DegradationTrigger is the paper's adaptive rule (the default): the exact
// accumulated degradation of Zhai et al. [7] compared against the average
// measured LB cost (Algorithm 1).
type DegradationTrigger struct{}

// Name returns "degradation".
func (DegradationTrigger) Name() string { return "degradation" }

// New returns a fresh degradation accumulator.
func (DegradationTrigger) New() RuntimeTrigger { return lb.NewDegradation() }

// MenonTrigger fires at the fitted analytic optimum of Menon et al. [6]:
// tau = sqrt(2*C*omega/m^) with the growth rate fitted from the observed
// iteration times.
type MenonTrigger struct{}

// Name returns "menon".
func (MenonTrigger) Name() string { return "menon" }

// New returns a fresh Menon trigger.
func (MenonTrigger) New() RuntimeTrigger { return lb.NewMenonTau() }

// PeriodicTrigger fires every Every iterations regardless of the measured
// times, the fixed-interval baseline.
type PeriodicTrigger struct {
	Every int // interval in iterations; must be positive
}

// Name returns "periodic".
func (PeriodicTrigger) Name() string { return "periodic" }

// New returns a fresh periodic counter.
func (t PeriodicTrigger) New() RuntimeTrigger { return &lb.Periodic{K: t.Every} }

// NeverTrigger disables load balancing entirely (the static baseline).
type NeverTrigger struct{}

// Name returns "never".
func (NeverTrigger) Name() string { return "never" }

// New returns the inert trigger.
func (NeverTrigger) New() RuntimeTrigger { return lb.Never{} }

// ScheduleTrigger replays a precomputed plan at runtime: the balancer fires
// exactly at the schedule's iterations. It is the bridge from a Planner to
// the application runtime — plan on the model, execute on the simulated
// cluster.
type ScheduleTrigger struct {
	Schedule Schedule
}

// Name returns "schedule".
func (ScheduleTrigger) Name() string { return "schedule" }

// New returns a fresh replay cursor over the schedule.
func (t ScheduleTrigger) New() RuntimeTrigger {
	return &lb.FixedSchedule{Iters: t.Schedule}
}

// ImbalanceObserver is optionally implemented by runtime trigger state
// machines that consume the per-iteration weighted load imbalance
// WLI = (max-avg)/avg of the per-PE compute times. The runner feeds
// ObserveImbalance right after Observe on every iteration; triggers that
// do not implement it are unaffected — the WLI is computed out-of-band
// from the pure weight function and costs no simulated time.
type ImbalanceObserver = lb.ImbalanceObserver

// WLITrigger fires when the weighted load imbalance WLI = (max-avg)/avg of
// the per-PE compute times exceeds Threshold — the redistribute-on-tolerance
// policy of GAMER's LB_EstimateLoadImbalance. Unlike the time-based triggers
// it reacts to the *shape* of the load, not its cost: a perfectly overlapped
// but skewed iteration fires it, and a uniformly slow one never does. The
// WLI of every iteration is also recorded on the result timeline, trigger or
// not, so runs can report imbalance without balancing on it.
type WLITrigger struct {
	Threshold float64 // fire when WLI exceeds this; must be positive
}

// Name returns "wli".
func (WLITrigger) Name() string { return "wli" }

// New returns a fresh WLI comparator.
func (t WLITrigger) New() RuntimeTrigger { return &lb.WLIThreshold{Threshold: t.Threshold} }

// normalizeSchedule clamps an arbitrary iteration list into a valid
// schedule for a gamma-iteration run.
func normalizeSchedule(iters []int, gamma int) Schedule {
	return schedule.Normalize(iters, gamma)
}

// dropsWarmup reports whether an installed trigger makes the forced warmup
// LB call wrong rather than helpful: the static baseline must stay free of
// LB calls, and a schedule replay already encodes its (possibly absent)
// first step — a forced warmup call would distort the plan.
func dropsWarmup(t Trigger) bool {
	switch t.(type) {
	case NeverTrigger, ScheduleTrigger:
		return true
	default:
		return false
	}
}
