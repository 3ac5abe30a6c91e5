package ulba

import (
	"context"
	"fmt"

	"ulba/internal/schedule"
	"ulba/internal/simulate"
	"ulba/internal/stats"
)

// Comparison is the outcome of evaluating one instance under both methods:
// the standard method on its Menon schedule versus ULBA at its best
// grid-alpha on the planner's schedule.
type Comparison = simulate.Comparison

// FiveNum is a five-number summary (min, quartiles, max) plus the mean.
type FiveNum = stats.FiveNum

// Sweep is the batch engine for model-side experiments: it evaluates many
// application instances concurrently over a bounded worker pool, streaming
// per-instance Comparison results and aggregating them deterministically.
// It is the engine behind the paper's Fig. 3 ("1000 instances per bucket")
// promoted to the public surface. With the default sigma+ policy each
// instance runs on the allocation-free incremental evaluator (see
// DESIGN.md, "Evaluation core"); custom planners take the general
// Planner.Plan path. Build it with NewSweep; a constructed Sweep is
// immutable and safe for concurrent use.
type Sweep struct {
	workers int
	grid    []float64 // alpha grid, built once and shared read-only
	planner Planner
}

// NewSweep builds a sweep engine. Defaults: GOMAXPROCS workers, the paper's
// 100-point alpha grid, and the sigma+ planner (the paper's proposal).
// WithPlanner swaps the schedule policy ULBA is evaluated on — e.g.
// AnnealPlanner reproduces the Fig. 2 comparison basis.
func NewSweep(opts ...Option) (*Sweep, error) {
	s := settings{alphaGrid: 100}
	if err := applyOptions(&s, scopeSweep, "Sweep", opts); err != nil {
		return nil, err
	}
	if pl, ok := s.planner.(PeriodicPlanner); ok && pl.Every <= 0 {
		return nil, fmt.Errorf("ulba: periodic planner needs Every > 0, got %d", pl.Every)
	}
	return &Sweep{workers: s.workers, grid: simulate.AlphaGrid(s.alphaGrid), planner: s.planner}, nil
}

// SweepResult is one streamed instance outcome. Index is the instance's
// position in the input slice, so consumers can restore input order
// regardless of completion order.
type SweepResult struct {
	Index      int
	Comparison Comparison
	Err        error
}

// SweepSummary aggregates a completed sweep. Aggregation happens in input
// order over deterministic per-instance evaluations, so the summary is
// bit-identical for every worker count.
type SweepSummary struct {
	Instances     int
	Gains         FiveNum // distribution of per-instance fractional gains
	MeanBestAlpha float64
	ULBAWins      int // instances where ULBA strictly beat the standard method
}

// compare evaluates one instance. The default (sigma+) planner — installed
// as nil, or explicitly as SigmaPlusPlanner — dispatches to the fast path:
// the allocation-free incremental evaluator of internal/schedule, which
// scans the alpha grid without materializing a Schedule per grid point and
// prunes alphas whose partial total already exceeds the best seen. Custom
// planners fall back to the general path, planning and evaluating a
// schedule at each grid alpha. Both paths are bit-identical for the sigma+
// policy; a golden test pins it.
func (s *Sweep) compare(ev *schedule.Evaluator, p ModelParams) (Comparison, error) {
	switch s.planner.(type) {
	case nil:
		return simulate.CompareWith(ev, p, s.grid), nil
	case SigmaPlusPlanner:
		// Keep the general path's eager validation: an explicit planner
		// rejects invalid instances instead of evaluating them. The
		// general path validates the instance at each grid alpha — never
		// the raw Alpha field, which the grid overrides — so validate at
		// the first grid alpha to match it exactly.
		if err := p.WithAlpha(s.grid[0]).Validate(); err != nil {
			return Comparison{}, fmt.Errorf("ulba: planner %q on instance %v: %w", s.planner.Name(), p, err)
		}
		return simulate.CompareWith(ev, p, s.grid), nil
	}
	std := simulate.StandardTime(p)
	best, bestAlpha := -1.0, 0.0
	for _, a := range s.grid {
		pa := p.WithAlpha(a)
		sched, err := s.planner.Plan(pa, 0)
		if err != nil {
			return Comparison{}, fmt.Errorf("ulba: planner %q on instance %v: %w", s.planner.Name(), p, err)
		}
		t := schedule.TotalTimeULBA(pa, sched)
		if best < 0 || t < best {
			best, bestAlpha = t, a
		}
	}
	return Comparison{
		Params:    p,
		StdTime:   std,
		ULBATime:  best,
		BestAlpha: bestAlpha,
		Gain:      (std - best) / std,
	}, nil
}

// Stream evaluates the instances over the worker pool and sends one
// SweepResult per instance as soon as it completes (not in input order).
// The channel is closed when every instance has been delivered or the
// context is cancelled, whichever comes first; after a cancellation,
// delivery of the instances already in flight is best-effort, so a
// consumer may cancel and walk away without leaking the workers. Run wraps
// Stream with a guaranteed-delivery contract instead (it always drains),
// which is what makes its lowest-index error reporting deterministic.
func (s *Sweep) Stream(ctx context.Context, params []ModelParams) <-chan SweepResult {
	return s.stream(ctx, params, false)
}

// stream is Stream with an explicit delivery mode. guaranteed delivery
// (used by Run) sends every dispatched instance's result with a blocking
// send — safe only for consumers that drain the channel until it closes,
// and the property Run's deterministic error reporting rests on: instances
// are dispatched in input order, so the dispatched set is a prefix of the
// input, and with delivery guaranteed the lowest erroring index always
// reaches the collector. Best-effort mode keeps the select against
// ctx.Done, trading that determinism for tolerance of consumers that stop
// receiving after cancellation.
func (s *Sweep) stream(ctx context.Context, params []ModelParams, guaranteed bool) <-chan SweepResult {
	return simulate.FanOut(ctx, len(params), s.workers, guaranteed, func() func(int) SweepResult {
		// One evaluator per worker. The fast-path methods are stateless
		// today, but evaluator state (the SigmaPlus scratch buffer, any
		// future memoization) must stay per-goroutine, so the plumbing
		// is per-worker.
		var ev schedule.Evaluator
		return func(i int) SweepResult {
			c, err := s.compare(&ev, params[i])
			return SweepResult{Index: i, Comparison: c, Err: err}
		}
	})
}

// Run evaluates every instance and returns the input-ordered comparisons
// with their aggregate summary. Cancelling the context mid-sweep abandons
// the remaining instances and returns ctx.Err(). For a fixed instance set
// the output is bit-identical regardless of the worker count.
func (s *Sweep) Run(ctx context.Context, params []ModelParams) (SweepSummary, []Comparison, error) {
	// A per-run child context lets the first instance error stop the
	// dispatch of the remaining instances instead of evaluating a doomed
	// sweep to completion.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	return collectSweep(ctx, cancel, s.stream(runCtx, params, true), len(params))
}

// collectSweep drains a result stream of n expected instances into
// input-ordered comparisons and their summary.
func collectSweep(ctx context.Context, cancel context.CancelFunc, results <-chan SweepResult, n int) (SweepSummary, []Comparison, error) {
	comps := make([]Comparison, n)
	err := collectIndexed(ctx, cancel, results, n, "instances",
		func(r SweepResult) (int, error) { return r.Index, r.Err },
		func(r SweepResult) { comps[r.Index] = r.Comparison })
	if err != nil {
		return SweepSummary{}, nil, err
	}
	return summarizeSweep(comps), comps, nil
}

// collectIndexed is the collector shared by the batch engines: it drains a
// guaranteed-delivery result stream of n expected indexed results, storing
// successes via store. cancel stops the producing stream on the first
// per-item error; when several items error, the one with the lowest input
// index wins, so the reported error does not depend on completion order. A
// stream that closes short of n results without an error reports either
// the caller's context error or the delivered/expected mismatch (noun
// names the items in that message).
func collectIndexed[R any](ctx context.Context, cancel context.CancelFunc, results <-chan R, n int,
	noun string, examine func(R) (index int, err error), store func(R)) error {
	got := 0
	var firstErr error
	firstErrIdx := -1
	for r := range results {
		idx, err := examine(r)
		if err != nil {
			if firstErrIdx < 0 || idx < firstErrIdx {
				firstErr, firstErrIdx = err, idx
			}
			cancel()
			continue
		}
		store(r)
		got++
	}
	if firstErr != nil {
		return firstErr
	}
	if got < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("ulba: sweep delivered %d of %d %s", got, n, noun)
	}
	return nil
}

// SummarizeSweep aggregates comparisons in slice order into the same
// SweepSummary Run reports for that result set. It is the aggregation half
// of Run made standalone for Stream consumers (including the HTTP service's
// NDJSON streaming), which collect per-instance results themselves and
// still want the deterministic input-order summary.
func SummarizeSweep(comps []Comparison) SweepSummary { return summarizeSweep(comps) }

// summarizeSweep aggregates comparisons in slice order.
func summarizeSweep(comps []Comparison) SweepSummary {
	sum := SweepSummary{Instances: len(comps)}
	if len(comps) == 0 {
		return sum
	}
	gains := make([]float64, len(comps))
	var alphaSum float64
	for i, c := range comps {
		gains[i] = c.Gain
		alphaSum += c.BestAlpha
		if c.Gain > 0 {
			sum.ULBAWins++
		}
	}
	sum.Gains = stats.Summarize(gains)
	sum.MeanBestAlpha = alphaSum / float64(len(comps))
	return sum
}
