// Package simulate drives the paper's synthetic experiments on the analytic
// model: the validation of the sigma+ upper bound against simulated
// annealing (Fig. 2) and the theoretical comparison of ULBA with the
// standard LB method as a function of the percentage of overloading PEs
// (Fig. 3). All runs are deterministic given a seed and parallelize over
// instances with a bounded worker pool.
package simulate

import (
	"context"
	"runtime"
	"sync"

	"ulba/internal/anneal"
	"ulba/internal/instance"
	"ulba/internal/model"
	"ulba/internal/schedule"
	"ulba/internal/stats"
)

// Comparison is the outcome of evaluating one instance under both methods.
type Comparison struct {
	Params    model.Params
	StdTime   float64 // standard method on its Menon/sigma+(alpha=0) schedule
	ULBATime  float64 // ULBA at the best alpha on its own sigma+ schedule
	BestAlpha float64
	// Gain is the fractional improvement of ULBA over the standard
	// method: (StdTime - ULBATime) / StdTime. Non-negative by
	// construction whenever the alpha grid contains 0.
	Gain float64
}

// AlphaGrid returns n alpha values uniformly spread over [0, 1] inclusive,
// matching the paper's "100 values of alpha uniformly distributed in the
// range [0, 1]". It always contains 0, so the best-alpha ULBA can never lose
// to the standard method.
func AlphaGrid(n int) []float64 {
	if n < 2 {
		return []float64{0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n-1)
	}
	return out
}

// StandardTime evaluates the standard method: alpha = 0, LB steps every
// Menon tau (equivalently sigma+ at alpha = 0), Eq. 2 in Eqs. 3-4. It runs
// on the allocation-free incremental evaluator; the result is bit-identical
// to materializing the schedule and evaluating it.
func StandardTime(p model.Params) float64 {
	var ev schedule.Evaluator
	return ev.TotalTimeStd(p.WithAlpha(0))
}

// ULBATimeAt evaluates ULBA at one alpha: LB steps every sigma+, Eq. 5 in
// Eqs. 3-4, on the incremental evaluator.
func ULBATimeAt(p model.Params, alpha float64) float64 {
	var ev schedule.Evaluator
	return ev.TotalTimeULBA(p.WithAlpha(alpha))
}

// BestAlpha scans the alpha grid and returns the alpha minimizing the ULBA
// total time, with that time. Grid points are pruned incrementally (see
// schedule.Evaluator.BestAlphaIncremental); the result is exactly that of a
// full scan, first minimum winning ties.
func BestAlpha(p model.Params, grid []float64) (alpha, best float64) {
	var ev schedule.Evaluator
	return ev.BestAlphaIncremental(p, grid)
}

// Compare evaluates one instance under both methods with the given alpha
// grid.
func Compare(p model.Params, grid []float64) Comparison {
	var ev schedule.Evaluator
	return CompareWith(&ev, p, grid)
}

// CompareWith is Compare on a caller-supplied evaluator. The evaluation
// itself is allocation-free and stateless; taking the evaluator explicitly
// keeps its ownership per worker goroutine (an Evaluator is not safe for
// concurrent use once its scratch state — schedule.Evaluator.SigmaPlus —
// is involved). It is the per-instance kernel of the public Sweep fast
// path.
func CompareWith(ev *schedule.Evaluator, p model.Params, grid []float64) Comparison {
	std := ev.TotalTimeStd(p.WithAlpha(0))
	a, ub := ev.BestAlphaIncremental(p, grid)
	return Comparison{
		Params:    p,
		StdTime:   std,
		ULBATime:  ub,
		BestAlpha: a,
		Gain:      (std - ub) / std,
	}
}

// Fig3Config parameterizes the Fig. 3 sweep.
type Fig3Config struct {
	Buckets            []float64 // fractions of overloading PEs; default instance.Fig3Buckets
	InstancesPerBucket int       // paper: 1000
	AlphaGridSize      int       // paper: 100
	Seed               uint64
	Workers            int // default GOMAXPROCS
}

// Fig3Bucket is one box of the Fig. 3 box plot.
type Fig3Bucket struct {
	Fraction      float64       // N/P
	Gains         stats.FiveNum // distribution of percentage gains (0..1 fractions)
	MeanBestAlpha float64
	RawGains      []float64 // per-instance gains, for rendering
}

// RunFig3 reproduces the Fig. 3 experiment: for each percentage of
// overloading PEs, sample instances from Table II (with N pinned), evaluate
// the standard method and best-of-grid ULBA, and summarize the gains.
func RunFig3(cfg Fig3Config) []Fig3Bucket {
	if cfg.Buckets == nil {
		cfg.Buckets = instance.Fig3Buckets
	}
	if cfg.InstancesPerBucket <= 0 {
		cfg.InstancesPerBucket = 1000
	}
	if cfg.AlphaGridSize <= 0 {
		cfg.AlphaGridSize = 100
	}
	grid := AlphaGrid(cfg.AlphaGridSize)

	out := make([]Fig3Bucket, len(cfg.Buckets))
	gen := instance.NewGenerator(cfg.Seed)
	for bi, frac := range cfg.Buckets {
		// Sample instances sequentially for determinism, evaluate in
		// parallel.
		params := make([]model.Params, cfg.InstancesPerBucket)
		for i := range params {
			params[i] = gen.SampleAt(frac)
		}
		comps := parallelMap(cfg.Workers, params, func(p model.Params) Comparison {
			return Compare(p, grid)
		})
		gains := make([]float64, len(comps))
		var alphaSum float64
		for i, c := range comps {
			gains[i] = c.Gain
			alphaSum += c.BestAlpha
		}
		out[bi] = Fig3Bucket{
			Fraction:      frac,
			Gains:         stats.Summarize(gains),
			MeanBestAlpha: alphaSum / float64(len(comps)),
			RawGains:      gains,
		}
	}
	return out
}

// Fig2Config parameterizes the Fig. 2 experiment.
type Fig2Config struct {
	Instances   int // paper: 1000 (defaults to 200 for tractability)
	AnnealSteps int // annealing proposals per instance
	Seed        uint64
	Workers     int
}

// Fig2Result summarizes the sigma+ versus simulated-annealing comparison.
type Fig2Result struct {
	// Gains holds, per instance, the relative gain of the sigma+ schedule
	// over the annealed schedule: (T_anneal - T_sigma) / T_anneal.
	// Negative values mean the heuristic search found a better schedule
	// than the analytic upper bound.
	Gains      []float64
	Best       float64 // most positive gain (paper: +1.57%)
	Worst      float64 // most negative gain (paper: -5.58%)
	Mean       float64 // paper: -0.83%
	BetterFrac float64 // fraction of instances where sigma+ beat annealing
}

// RunFig2 reproduces the Fig. 2 experiment: on each Table II instance,
// compare load balancing every sigma+ iterations against a simulated
// annealing search over all 2^gamma LB schedules (the heuristic of Section
// III-B), both evaluated with Eq. 5 in Eqs. 3-4.
func RunFig2(cfg Fig2Config) Fig2Result {
	if cfg.Instances <= 0 {
		cfg.Instances = 200
	}
	if cfg.AnnealSteps <= 0 {
		cfg.AnnealSteps = 20000
	}
	gen := instance.NewGenerator(cfg.Seed)
	type job struct {
		p    model.Params
		seed uint64
	}
	jobs := make([]job, cfg.Instances)
	for i := range jobs {
		jobs[i] = job{p: gen.Sample(), seed: cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15}
	}
	gains := parallelMap(cfg.Workers, jobs, func(j job) float64 {
		sigmaTime := ULBATimeAt(j.p, j.p.Alpha)
		annealed := AnnealSchedule(j.p, cfg.AnnealSteps, j.seed)
		annealTime := schedule.TotalTimeULBA(j.p, annealed)
		return (annealTime - sigmaTime) / annealTime
	})
	res := Fig2Result{Gains: gains}
	res.Best, _ = maxOf(gains)
	res.Worst, _ = minOf(gains)
	res.Mean = stats.Mean(gains)
	better := 0
	for _, g := range gains {
		if g > 0 {
			better++
		}
	}
	res.BetterFrac = float64(better) / float64(len(gains))
	return res
}

// AnnealSchedule searches for a near-optimal LB schedule for the instance
// with simulated annealing over the boolean state space of Section III-B
// (one flag per iteration, flip moves), starting from the empty schedule.
func AnnealSchedule(p model.Params, steps int, seed uint64) schedule.Schedule {
	energy := func(flags []bool) float64 {
		return schedule.TotalTimeULBA(p, schedule.FromBools(flags))
	}
	initial := make([]bool, p.Gamma)
	res := anneal.MinimizeBools(anneal.Config{Steps: steps, Seed: seed}, initial, energy)
	return schedule.FromBools(res.Best)
}

// FanOut is the one bounded worker pool, shared by the batch engines
// (ulba.Sweep, ulba.RuntimeSweep) and the Fig. 2-3 drivers. It dispatches
// indices 0..n-1 in input order over workers goroutines (<= 0 selects
// GOMAXPROCS), streams one result per dispatched index, and closes the
// channel when every worker is done; a cancelled ctx stops the dispatch.
// newWorker runs once per worker goroutine to build its eval function,
// giving each worker private scratch state (e.g. a schedule.Evaluator).
// guaranteed selects blocking sends (every dispatched result lands; the
// consumer must drain until close) over best-effort sends racing ctx.Done.
func FanOut[R any](ctx context.Context, n, workers int, guaranteed bool, newWorker func() func(i int) R) <-chan R {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// A workers-sized buffer decouples completion from consumption without
	// growing with the batch: memory stays O(workers) however many
	// instances stream through.
	out := make(chan R, workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval := newWorker()
			for i := range idx {
				r := eval(i)
				if guaranteed {
					// The consumer drains until close, so this always
					// lands; a select against ctx.Done here could drop
					// the result when both cases are ready at once.
					out <- r
					continue
				}
				select {
				case out <- r:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(out)
	dispatch:
		for i := 0; i < n; i++ {
			// The Err pre-check makes cancellation deterministic: once
			// the context reports done, no further instance is
			// dispatched, even if the select below could still win the
			// race against a closed Done channel.
			if ctx.Err() != nil {
				break dispatch
			}
			select {
			case idx <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}()
	return out
}

// parallelMap applies f to every element of in over the FanOut pool and
// returns the results in input order. Each slot is computed independently
// and written to its own index, so the result is identical for every
// worker count. It is the uncancellable form the fixed-size Fig. 2-3
// drivers use.
func parallelMap[T, R any](workers int, in []T, f func(T) R) []R {
	out := make([]R, len(in))
	for range FanOut(context.Background(), len(in), workers, true, func() func(int) struct{} {
		return func(i int) struct{} { out[i] = f(in[i]); return struct{}{} }
	}) {
	}
	return out
}

func maxOf(xs []float64) (float64, int) {
	best, idx := xs[0], 0
	for i, x := range xs {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

func minOf(xs []float64) (float64, int) {
	best, idx := xs[0], 0
	for i, x := range xs {
		if x < best {
			best, idx = x, i
		}
	}
	return best, idx
}
