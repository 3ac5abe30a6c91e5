package ulba

import (
	"context"
	"fmt"

	"ulba/internal/erosion"
	"ulba/internal/lb"
	"ulba/internal/schedule"
)

// Experiment is one fully validated application run: the erosion instance,
// the LB method, and the when-to-balance policy (a runtime Trigger or a
// planned Schedule). Build it with New; a constructed Experiment is
// immutable and safe for concurrent use.
type Experiment struct {
	cfg       RunConfig
	trigger   Trigger
	planner   Planner
	planned   Schedule
	workers   int
	predicted float64
	hasModel  bool
}

// New builds an Experiment for p PEs. With no options it runs the standard
// method on DefaultAppConfig(p) for 120 iterations under DefaultCostModel,
// with the paper's hyper-parameters: alpha 0.4, z-score threshold 3.0,
// adaptive degradation trigger, Eq. 11 overhead term included. Every option
// is validated eagerly, so a non-nil *Experiment is always runnable.
func New(p int, opts ...Option) (*Experiment, error) {
	if p <= 0 {
		return nil, fmt.Errorf("ulba: experiment needs a positive PE count, got %d", p)
	}
	s := settings{cfg: defaultRunConfig(p)}
	if err := applyOptions(&s, scopeExperiment, "Experiment", opts); err != nil {
		return nil, err
	}
	if s.seed != nil {
		s.cfg.App.Seed = *s.seed
	}

	e := &Experiment{workers: s.workers, planner: s.planner, trigger: s.trigger}
	if s.planner != nil && s.trigger != nil {
		return nil, fmt.Errorf("ulba: WithPlanner and WithTrigger are mutually exclusive: both decide when to balance")
	}
	switch {
	case s.planner != nil:
		if s.model == nil {
			return nil, fmt.Errorf("ulba: WithPlanner requires WithModel: the planner plans against the analytic model parameters")
		}
		sched, err := s.planner.Plan(*s.model, s.cfg.Iterations)
		if err != nil {
			return nil, fmt.Errorf("ulba: planner %q: %w", s.planner.Name(), err)
		}
		e.planned = normalizeSchedule(sched, s.cfg.Iterations)
		e.trigger = ScheduleTrigger{Schedule: e.planned}
		s.cfg.TriggerFactory = e.trigger.New
		// The plan already contains the (possibly absent) first step; a
		// forced warmup call would distort it.
		s.cfg.WarmupLB = -1
		// Model-side prediction for PlannedTotalTime: Eq. 4 on the planned
		// schedule under the *run's* configured method — Eq. 2 per
		// iteration for the standard method, Eq. 5 at the run's alpha for
		// ULBA (an adaptive-alpha run is predicted at its initial alpha).
		// The schedule itself was planned on the model as given, so the
		// prediction matches what Run will replay.
		mp := *s.model
		if s.cfg.Iterations > 0 {
			mp.Gamma = s.cfg.Iterations
		}
		if s.cfg.Method == ULBA {
			e.predicted = schedule.TotalTimeULBA(mp.WithAlpha(s.cfg.Alpha), e.planned)
		} else {
			e.predicted = schedule.TotalTimeStd(mp, e.planned)
		}
		e.hasModel = true
	case s.trigger != nil:
		if pt, ok := s.trigger.(PeriodicTrigger); ok && pt.Every <= 0 {
			return nil, fmt.Errorf("ulba: periodic trigger needs Every > 0, got %d", pt.Every)
		}
		s.cfg.TriggerFactory = s.trigger.New
		if dropsWarmup(s.trigger) {
			s.cfg.WarmupLB = -1
		}
	}

	s.cfg = s.cfg.Normalized()
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	e.cfg = s.cfg
	return e, nil
}

// defaultRunConfig is the zero-option configuration of New for p PEs.
func defaultRunConfig(p int) RunConfig {
	return RunConfig{
		App:             DefaultAppConfig(p),
		Iterations:      120,
		Cost:            DefaultCostModel(),
		Method:          Standard,
		Alpha:           0.4,
		IncludeOverhead: true,
	}
}

// Config returns a copy of the underlying run configuration.
func (e *Experiment) Config() RunConfig { return e.cfg }

// Trigger returns the installed trigger, or nil when the run uses the
// default degradation rule (the config's TriggerFactory is then nil).
func (e *Experiment) Trigger() Trigger { return e.trigger }

// PlannedSchedule returns the LB schedule precomputed by WithPlanner, or
// nil for reactive (trigger-driven) experiments. The slice is a copy:
// mutating it cannot change the plan the run replays.
func (e *Experiment) PlannedSchedule() Schedule {
	if e.planned == nil {
		return nil
	}
	return append(Schedule(nil), e.planned...)
}

// PlannedTotalTime returns the analytic model's predicted total parallel
// time (Eq. 4) for the schedule the planner precomputed, evaluated under
// the experiment's configured method — Eq. 2 for Standard, Eq. 5 at the
// run's alpha for ULBA (adaptive-alpha runs are predicted at their initial
// alpha) — and whether such a prediction exists. It reports false for
// trigger-driven experiments, which have no model to predict from.
// Comparing the prediction against Run's measured TotalTime shows how far
// the simulated application drifts from the analytic model.
func (e *Experiment) PlannedTotalTime() (float64, bool) { return e.predicted, e.hasModel }

// Run executes the experiment on the simulated cluster. Runs are
// deterministic: the same Experiment always produces the same Result.
// Cancelling the context abandons the run, its physics included, and
// returns ctx.Err(); the abandoned work finishes in the background and is
// discarded.
func (e *Experiment) Run(ctx context.Context) (RunResult, error) {
	return await(ctx, func() (RunResult, error) {
		tr, err := erosion.NewTrace(e.cfg.App, e.cfg.Iterations)
		if err != nil {
			return RunResult{}, err
		}
		return lb.Run(e.cfg, tr)
	})
}

// await runs f in the background and returns its outcome, or ctx.Err() as
// soon as ctx is cancelled; an abandoned f finishes and is discarded.
func await[T any](ctx context.Context, f func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := f()
		done <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		return zero, ctx.Err()
	case o := <-done:
		return o.v, o.err
	}
}

// MethodComparison holds the configured method and the standard-method
// baseline executed on the identical instance. The physics are identical
// across methods (erosion randomness is a pure function of cell coordinates
// and time), so every difference comes from the LB decisions alone.
type MethodComparison struct {
	Baseline RunResult // the standard method
	Result   RunResult // the configured method
}

// Gain is the fractional improvement of the configured method over the
// standard baseline: (baseline - result) / baseline total time.
func (c MethodComparison) Gain() float64 {
	if c.Baseline.TotalTime == 0 {
		return 0
	}
	return (c.Baseline.TotalTime - c.Result.TotalTime) / c.Baseline.TotalTime
}

// CallsAvoided is the fraction of the baseline's LB calls the configured
// method did not need (paper Fig. 4b: 62.5%).
func (c MethodComparison) CallsAvoided() float64 {
	if c.Baseline.LBCount() == 0 {
		return 0
	}
	return 1 - float64(c.Result.LBCount())/float64(c.Baseline.LBCount())
}

// Compare runs the experiment and its standard-method baseline on the same
// instance and returns both results. The physics is computed once and
// shared by both runs. With WithWorkers(n >= 2) the two runs execute
// concurrently; the outcome is identical either way. Cancelling the context
// abandons both runs and returns ctx.Err().
func (e *Experiment) Compare(ctx context.Context) (MethodComparison, error) {
	base := e.cfg
	base.Method = lb.Standard
	base.AdaptiveAlpha = false
	return await(ctx, func() (MethodComparison, error) {
		tr, err := erosion.NewTrace(e.cfg.App, e.cfg.Iterations)
		if err != nil {
			return MethodComparison{}, err
		}
		var cmp MethodComparison
		var baseErr, runErr error
		if e.workers == 1 {
			if cmp.Baseline, baseErr = lb.Run(base, tr); baseErr == nil {
				cmp.Result, runErr = lb.Run(e.cfg, tr)
			}
		} else {
			done := make(chan struct{})
			go func() {
				defer close(done)
				cmp.Baseline, baseErr = lb.Run(base, tr)
			}()
			cmp.Result, runErr = lb.Run(e.cfg, tr)
			<-done
		}
		if baseErr != nil {
			return MethodComparison{}, baseErr
		}
		if runErr != nil {
			return MethodComparison{}, runErr
		}
		return cmp, nil
	})
}
