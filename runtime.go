package ulba

import (
	"context"
	"fmt"
	"sync"

	"ulba/internal/lb"
	"ulba/internal/simulate"
	"ulba/internal/stats"
)

// RuntimeExperiment is one fully validated runtime scenario: a Workload
// bound to p simulated PEs, executed under a when-to-balance policy (a
// runtime Trigger or a planner-precomputed Schedule). It is the runtime
// counterpart of Experiment — instead of evaluating the analytic model, it
// actually runs the scenario over the simulated message-passing cluster and
// measures the per-iteration timeline. Build it with NewRuntime; a
// constructed RuntimeExperiment is immutable and safe for concurrent use.
// Its materialization — the weight table over the items x iterations grid
// and the perfect-knowledge bound — is built on the first Run, so a
// scenario that is constructed but never run costs nothing proportional to
// its grid.
type RuntimeExperiment struct {
	cfg      RuntimeConfig
	workload Workload
	trigger  Trigger
	planner  Planner
	planned  Schedule
	workers  int
	grid     *scenarioGrid
	// noLB memoizes the no-LB baseline when it is shared: the cells of one
	// assessment column differ only in policy, and the baseline ignores
	// the policy. Nil runs the baseline afresh on every Run.
	noLB *synthRun
}

// scenarioGrid is a scenario's materialization: the weight table (when the
// grid fits lb.MaxTableCells) and the perfect-knowledge bound. Both are
// pure functions of the scenario — not of its policy — so the cells of one
// assessment column share one grid. It is kept out of the RuntimeConfig, so
// Config never races with the build.
type scenarioGrid struct {
	once    sync.Once
	table   *lb.WeightTable
	perfect float64
}

// build materializes the grid of cfg on first use. The table holds the exact
// float64s the weight function returns, so a tabled run is bit-identical to
// an untabled one; every run of the scenario (the configured one, the no-LB
// baseline, repeated Run calls) then reads rows instead of re-invoking the
// closure per item per iteration.
func (g *scenarioGrid) build(cfg RuntimeConfig) (*lb.WeightTable, float64) {
	g.once.Do(func() {
		if cfg.Items <= lb.MaxTableCells/cfg.Iterations {
			g.table = lb.BuildWeightTable(cfg.Items, cfg.Iterations, cfg.Weight)
			cfg.Table = g.table
		}
		g.perfect = lb.PerfectTime(cfg)
	})
	return g.table, g.perfect
}

// synthRun is one lb.RunSynth execution, started on first demand and
// awaited under a context. The run itself ignores cancellation: a cancelled
// waiter returns ctx.Err() and abandons the wait, while the run completes in
// the background — so a memoized synthRun that one caller gave up on still
// delivers its result to every later caller, never the cancellation.
type synthRun struct {
	once sync.Once
	done chan struct{}
	res  RuntimeTimeline
	err  error
}

func (r *synthRun) wait(ctx context.Context, cfg RuntimeConfig) (RuntimeTimeline, error) {
	r.once.Do(func() {
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			r.res, r.err = lb.RunSynth(cfg)
		}()
	})
	select {
	case <-ctx.Done():
		return RuntimeTimeline{}, ctx.Err()
	case <-r.done:
		return r.res, r.err
	}
}

// NewRuntime builds a runtime scenario for p PEs. With no options it runs
// the linear-drift workload for 200 iterations under the paper's adaptive
// degradation trigger on the reference cluster cost model. Every option is
// validated eagerly, so a non-nil *RuntimeExperiment is always runnable;
// the weight table and the perfect-knowledge bound are not built here but
// on the first Run, so construction does no work proportional to the
// items x iterations grid.
//
// WithPlanner replaces the reactive trigger with a precomputed schedule:
// the planner plans on the analytic model (from WithModel, or derived from
// the workload when it implements ModeledWorkload) and the run replays the
// plan — the paper's anticipation move, executed on the simulated cluster.
func NewRuntime(p int, opts ...Option) (*RuntimeExperiment, error) {
	if p <= 0 {
		return nil, fmt.Errorf("ulba: runtime experiment needs a positive PE count, got %d", p)
	}
	s := settings{}
	if err := applyOptions(&s, scopeRuntime, "RuntimeExperiment", opts); err != nil {
		return nil, err
	}
	if s.workload == nil {
		s.workload = LinearWorkload{}
	}
	iterations := s.cfg.Iterations
	if iterations == 0 {
		iterations = 200
	}
	cost := s.cfg.Cost
	if cost.FLOPS == 0 {
		cost = DefaultCostModel()
	}

	if s.speeds != nil && len(s.speeds) != p {
		return nil, fmt.Errorf("ulba: WithSpeeds got %d speeds for %d PEs", len(s.speeds), p)
	}
	items, weight, err := s.workload.Instantiate(p)
	if err != nil {
		return nil, err
	}
	e := &RuntimeExperiment{
		workload: s.workload,
		trigger:  s.trigger,
		planner:  s.planner,
		workers:  s.workers,
		grid:     &scenarioGrid{},
		cfg: RuntimeConfig{
			P:          p,
			Items:      items,
			Iterations: iterations,
			Weight:     weight,
			Cost:       cost,
			Speeds:     s.speeds,
		},
	}
	e.cfg = e.cfg.Normalized()
	// The forced warmup call defaults to iteration 1; a one-iteration run
	// has no room for it, so drop the warmup rather than rejecting an
	// iteration count WithIterations documents as valid.
	if e.cfg.WarmupLB >= e.cfg.Iterations {
		e.cfg.WarmupLB = -1
	}

	if s.planner != nil && s.trigger != nil {
		return nil, fmt.Errorf("ulba: WithPlanner and WithTrigger are mutually exclusive: both decide when to balance")
	}
	switch {
	case s.planner != nil:
		mp, err := e.plannerModel(s.model)
		if err != nil {
			return nil, err
		}
		sched, err := s.planner.Plan(mp, iterations)
		if err != nil {
			return nil, fmt.Errorf("ulba: planner %q: %w", s.planner.Name(), err)
		}
		e.planned = normalizeSchedule(sched, iterations)
		e.trigger = ScheduleTrigger{Schedule: e.planned}
		e.cfg.TriggerFactory = e.trigger.New
		// The plan already contains the (possibly absent) first step; a
		// forced warmup call would distort it.
		e.cfg.WarmupLB = -1
	case s.trigger != nil:
		if pt, ok := s.trigger.(PeriodicTrigger); ok && pt.Every <= 0 {
			return nil, fmt.Errorf("ulba: periodic trigger needs Every > 0, got %d", pt.Every)
		}
		if wt, ok := s.trigger.(WLITrigger); ok && !(wt.Threshold > 0) {
			return nil, fmt.Errorf("ulba: wli trigger needs Threshold > 0, got %g", wt.Threshold)
		}
		e.cfg.TriggerFactory = s.trigger.New
		if dropsWarmup(s.trigger) {
			e.cfg.WarmupLB = -1
		}
	}

	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// plannerModel resolves the model parameters a planner-driven scenario
// plans against: the explicit WithModel parameters when given, otherwise
// the workload's own ModeledWorkload description.
func (e *RuntimeExperiment) plannerModel(explicit *ModelParams) (ModelParams, error) {
	if explicit != nil {
		return *explicit, nil
	}
	mw, ok := e.workload.(ModeledWorkload)
	if !ok {
		return ModelParams{}, fmt.Errorf(
			"ulba: WithPlanner on workload %q requires WithModel: the workload does not implement ModeledWorkload",
			e.workload.Name())
	}
	mp, err := mw.Model(e.cfg)
	if err != nil {
		return ModelParams{}, fmt.Errorf("ulba: workload %q model: %w", e.workload.Name(), err)
	}
	return mp, nil
}

// Config returns a copy of the underlying scenario configuration.
func (e *RuntimeExperiment) Config() RuntimeConfig { return e.cfg }

// Workload returns the scenario's workload.
func (e *RuntimeExperiment) Workload() Workload { return e.workload }

// Trigger returns the installed trigger, or nil when the run uses the
// default degradation rule.
func (e *RuntimeExperiment) Trigger() Trigger { return e.trigger }

// PlannedSchedule returns the LB schedule precomputed by WithPlanner, or
// nil for reactive (trigger-driven) scenarios. The slice is a copy:
// mutating it cannot change the plan the experiment replays.
func (e *RuntimeExperiment) PlannedSchedule() Schedule {
	if e.planned == nil {
		return nil
	}
	return append(Schedule(nil), e.planned...)
}

// RuntimeResult is the outcome of one scenario run together with its two
// reference points: the same scenario with load balancing disabled, and the
// perfect-knowledge lower bound (every iteration's workload spread evenly
// at zero cost — unreachable, but the natural efficiency denominator).
type RuntimeResult struct {
	Timeline    RuntimeTimeline // the configured run's measured timeline
	NoLBTime    float64         // total time of the no-LB baseline run
	PerfectTime float64         // perfect-knowledge lower bound, seconds
}

// Gain is the fractional improvement of the configured policy over running
// without any load balancing: (noLB - total) / noLB. Negative means the
// policy paid more in LB cost than it recovered in balance.
func (r RuntimeResult) Gain() float64 {
	if r.NoLBTime == 0 {
		return 0
	}
	return (r.NoLBTime - r.Timeline.TotalTime) / r.NoLBTime
}

// Efficiency is the fraction of the perfect-knowledge bound the run
// achieved: perfect / measured, in (0, 1] for any real run.
func (r RuntimeResult) Efficiency() float64 {
	if r.Timeline.TotalTime == 0 {
		return 0
	}
	return r.PerfectTime / r.Timeline.TotalTime
}

// Run executes the scenario and its no-LB baseline on the simulated cluster
// and returns the measured timeline with both reference points. The first
// Run materializes the scenario grid; later runs reuse it. Runs are
// deterministic: the same RuntimeExperiment always produces the same
// RuntimeResult, bit for bit. With WithWorkers(n >= 2) the scenario and its
// baseline execute concurrently; the outcome is identical either way.
// Cancelling the context abandons the runs and returns ctx.Err(); the
// simulated ranks finish in the background.
func (e *RuntimeExperiment) Run(ctx context.Context) (RuntimeResult, error) {
	if err := ctx.Err(); err != nil {
		return RuntimeResult{}, err
	}
	cfg := e.cfg
	table, perfect := e.grid.build(cfg)
	cfg.Table = table
	baseCfg := cfg
	baseCfg.TriggerFactory = NeverTrigger{}.New
	baseCfg.WarmupLB = -1
	noLB := e.noLB
	if noLB == nil {
		noLB = &synthRun{}
	}

	res := RuntimeResult{PerfectTime: perfect}
	if e.workers == 1 {
		main, err := (&synthRun{}).wait(ctx, cfg)
		if err != nil {
			return RuntimeResult{}, err
		}
		base, err := noLB.wait(ctx, baseCfg)
		if err != nil {
			return RuntimeResult{}, err
		}
		res.Timeline, res.NoLBTime = main, base.TotalTime
		return res, nil
	}

	var main, base RuntimeTimeline
	var mainErr, baseErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		base, baseErr = noLB.wait(ctx, baseCfg)
	}()
	main, mainErr = (&synthRun{}).wait(ctx, cfg)
	<-done
	if mainErr != nil {
		return RuntimeResult{}, mainErr
	}
	if baseErr != nil {
		return RuntimeResult{}, baseErr
	}
	res.Timeline, res.NoLBTime = main, base.TotalTime
	return res, nil
}

// RuntimeSweep is the batch engine for runtime scenarios: it runs many
// RuntimeExperiments concurrently over the same bounded worker pool the
// model-side Sweep uses, streaming per-scenario results and aggregating
// them deterministically — the summary is bit-identical for every worker
// count. Build it with NewRuntimeSweep; a constructed RuntimeSweep is
// immutable and safe for concurrent use.
type RuntimeSweep struct {
	workers int
}

// NewRuntimeSweep builds a runtime sweep engine. The only accepted option
// is WithWorkers; the default is GOMAXPROCS workers. Note each scenario run
// itself spawns its PE-count goroutines (mostly blocked on virtual-time
// synchronization), so the worker bound governs scenario-level parallelism.
func NewRuntimeSweep(opts ...Option) (*RuntimeSweep, error) {
	s := settings{}
	if err := applyOptions(&s, scopeRuntimeSweep, "RuntimeSweep", opts); err != nil {
		return nil, err
	}
	return &RuntimeSweep{workers: s.workers}, nil
}

// RuntimeSweepResult is one streamed scenario outcome. Index is the
// scenario's position in the input slice, so consumers can restore input
// order regardless of completion order.
type RuntimeSweepResult struct {
	Index  int
	Result RuntimeResult
	Err    error
}

// RuntimeSweepSummary aggregates a completed runtime sweep. Aggregation
// happens in input order over deterministic per-scenario runs, so the
// summary is bit-identical for every worker count.
type RuntimeSweepSummary struct {
	Scenarios    int
	Gains        FiveNum // distribution of per-scenario gains over no-LB
	Efficiencies FiveNum // distribution of perfect/measured ratios
	MeanLBCalls  float64 // mean LB invocations per scenario
	MeanUsage    float64 // mean of per-scenario mean PE usage
	MeanWLI      float64 // mean of per-scenario mean weighted load imbalance
}

// Stream runs the scenarios over the worker pool and sends one
// RuntimeSweepResult per scenario as soon as it completes (not in input
// order). The channel is closed when every scenario has been delivered or
// the context is cancelled, whichever comes first; after a cancellation,
// delivery of the scenarios already in flight is best-effort, so a consumer
// may cancel and walk away without leaking the workers. Run wraps Stream
// with a guaranteed-delivery contract instead (it always drains), which is
// what makes its lowest-index error reporting deterministic.
func (s *RuntimeSweep) Stream(ctx context.Context, exps []*RuntimeExperiment) <-chan RuntimeSweepResult {
	return s.stream(ctx, ctx, exps, false)
}

// stream separates the dispatch context from the per-scenario run context:
// Run cancels dispatch on the first error but lets the scenarios already in
// flight observe only the caller's context, so a sibling's failure cannot
// corrupt their results into context errors — which is what keeps Run's
// lowest-index error reporting independent of the worker count.
func (s *RuntimeSweep) stream(dispatchCtx, runCtx context.Context, exps []*RuntimeExperiment, guaranteed bool) <-chan RuntimeSweepResult {
	return simulate.FanOut(dispatchCtx, len(exps), s.workers, guaranteed, func() func(int) RuntimeSweepResult {
		return func(i int) RuntimeSweepResult {
			if exps[i] == nil {
				return RuntimeSweepResult{Index: i, Err: fmt.Errorf("ulba: runtime sweep scenario %d is nil", i)}
			}
			r, err := exps[i].Run(runCtx)
			return RuntimeSweepResult{Index: i, Result: r, Err: err}
		}
	})
}

// Run executes every scenario and returns the input-ordered results with
// their aggregate summary. Cancelling the context mid-sweep abandons the
// remaining scenarios and returns ctx.Err(). For a fixed scenario set the
// output is bit-identical regardless of the worker count, and so is the
// reported error: the first scenario error stops the dispatch of the
// remaining scenarios, in-flight scenarios still complete, and the error
// of the lowest input index wins.
func (s *RuntimeSweep) Run(ctx context.Context, exps []*RuntimeExperiment) (RuntimeSweepSummary, []RuntimeResult, error) {
	dispatchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := s.stream(dispatchCtx, ctx, exps, true)

	out := make([]RuntimeResult, len(exps))
	err := collectIndexed(ctx, cancel, results, len(exps), "scenarios",
		func(r RuntimeSweepResult) (int, error) { return r.Index, r.Err },
		func(r RuntimeSweepResult) { out[r.Index] = r.Result })
	if err != nil {
		return RuntimeSweepSummary{}, nil, err
	}
	return summarizeRuntimeSweep(out), out, nil
}

// SummarizeRuntimeSweep aggregates scenario results in slice order into the
// same RuntimeSweepSummary Run reports for that result set — the runtime
// counterpart of SummarizeSweep, for Stream consumers that collect results
// themselves, such as the HTTP service's runtime-sweep jobs.
func SummarizeRuntimeSweep(results []RuntimeResult) RuntimeSweepSummary {
	return summarizeRuntimeSweep(results)
}

// summarizeRuntimeSweep aggregates scenario results in slice order.
func summarizeRuntimeSweep(results []RuntimeResult) RuntimeSweepSummary {
	sum := RuntimeSweepSummary{Scenarios: len(results)}
	if len(results) == 0 {
		return sum
	}
	gains := make([]float64, len(results))
	effs := make([]float64, len(results))
	var calls, usage, wli float64
	for i, r := range results {
		gains[i] = r.Gain()
		effs[i] = r.Efficiency()
		calls += float64(r.Timeline.LBCount())
		usage += r.Timeline.MeanUsage()
		wli += r.Timeline.MeanWLI()
	}
	sum.Gains = stats.Summarize(gains)
	sum.Efficiencies = stats.Summarize(effs)
	sum.MeanLBCalls = calls / float64(len(results))
	sum.MeanUsage = usage / float64(len(results))
	sum.MeanWLI = wli / float64(len(results))
	return sum
}
