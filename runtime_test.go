package ulba_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ulba"
	"ulba/internal/cli"
)

func mustRuntime(t *testing.T, p int, opts ...ulba.Option) *ulba.RuntimeExperiment {
	t.Helper()
	e, err := ulba.NewRuntime(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRuntimeDefaults(t *testing.T) {
	e := mustRuntime(t, 4)
	cfg := e.Config()
	if cfg.P != 4 || cfg.Iterations != 200 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Cost != ulba.DefaultCostModel() {
		t.Fatalf("unexpected cost model: %+v", cfg.Cost)
	}
	if e.Workload().Name() != "linear" {
		t.Fatalf("default workload = %q, want linear", e.Workload().Name())
	}
	if e.Trigger() != nil || e.PlannedSchedule() != nil {
		t.Fatalf("default experiment should use the built-in degradation rule")
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	cases := []struct {
		name string
		p    int
		opts []ulba.Option
	}{
		{"non-positive PEs", 0, nil},
		{"nil workload", 4, []ulba.Option{ulba.WithWorkload(nil)}},
		{"zero option", 4, []ulba.Option{{}}},
		{"experiment-only option", 4, []ulba.Option{ulba.WithAlpha(0.4)}},
		{"sweep-only option", 4, []ulba.Option{ulba.WithAlphaGrid(10)}},
		{"non-positive iterations", 4, []ulba.Option{ulba.WithIterations(-1)}},
		{"planner and trigger", 4, []ulba.Option{
			ulba.WithPlanner(ulba.SigmaPlusPlanner{}), ulba.WithTrigger(ulba.NeverTrigger{})}},
		{"planner without model on unmodeled workload", 4, []ulba.Option{
			ulba.WithWorkload(ulba.BurstyWorkload{}), ulba.WithPlanner(ulba.SigmaPlusPlanner{})}},
		{"periodic trigger without interval", 4, []ulba.Option{
			ulba.WithTrigger(ulba.PeriodicTrigger{})}},
		{"workload that fails to instantiate", 2, []ulba.Option{
			ulba.WithWorkload(ulba.TraceWorkload{})}},
	}
	for _, tc := range cases {
		if _, err := ulba.NewRuntime(tc.p, tc.opts...); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRuntimeSingleIterationRun(t *testing.T) {
	// WithIterations documents any positive count as valid: a
	// one-iteration run must drop the (internal) warmup call rather than
	// fail its validation.
	res, err := mustRuntime(t, 4, ulba.WithIterations(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline.IterTimes) != 1 || res.Timeline.LBCount() != 0 {
		t.Fatalf("one-iteration run: %+v", res.Timeline)
	}
}

func TestRuntimeRunDeterministicReplay(t *testing.T) {
	// The same scenario run twice yields identical per-iteration
	// timelines, bit for bit — the acceptance contract of the engine.
	build := func() *ulba.RuntimeExperiment {
		return mustRuntime(t, 4,
			ulba.WithWorkload(ulba.LinearWorkload{Seed: 7}),
			ulba.WithIterations(80))
	}
	ctx := context.Background()
	a, err := build().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical scenario runs disagree:\n%+v\n%+v", a, b)
	}
}

func TestRuntimeRunWorkersInvariant(t *testing.T) {
	// WithWorkers only changes whether the scenario and its no-LB
	// baseline run concurrently, never the result.
	ctx := context.Background()
	seq, err := mustRuntime(t, 4, ulba.WithIterations(60), ulba.WithWorkers(1)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mustRuntime(t, 4, ulba.WithIterations(60), ulba.WithWorkers(4)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the run result")
	}
}

func TestRuntimeBaselineOrdering(t *testing.T) {
	res, err := mustRuntime(t, 4, ulba.WithIterations(80)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfectTime <= 0 {
		t.Fatalf("PerfectTime = %g", res.PerfectTime)
	}
	if res.Timeline.TotalTime < res.PerfectTime {
		t.Fatalf("measured %.6f beat the perfect-knowledge bound %.6f",
			res.Timeline.TotalTime, res.PerfectTime)
	}
	if res.NoLBTime < res.PerfectTime {
		t.Fatalf("no-LB %.6f beat the perfect-knowledge bound %.6f",
			res.NoLBTime, res.PerfectTime)
	}
	if res.Efficiency() <= 0 || res.Efficiency() > 1 {
		t.Fatalf("Efficiency = %g", res.Efficiency())
	}
}

func TestRuntimeStationaryBarelyBalances(t *testing.T) {
	// A correct adaptive trigger pays only the forced warmup call on a
	// stationary load.
	res, err := mustRuntime(t, 4,
		ulba.WithWorkload(ulba.StationaryWorkload{}),
		ulba.WithIterations(100)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Timeline.LBCount(); got != 1 {
		t.Fatalf("stationary load balanced %d times, want the warmup call only (LB at %v)",
			got, res.Timeline.LBIters)
	}
}

func TestRuntimeNeverTriggerMatchesBaseline(t *testing.T) {
	res, err := mustRuntime(t, 4,
		ulba.WithTrigger(ulba.NeverTrigger{}),
		ulba.WithIterations(60)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.LBCount() != 0 {
		t.Fatalf("never trigger balanced %d times", res.Timeline.LBCount())
	}
	if res.Timeline.TotalTime != res.NoLBTime || res.Gain() != 0 {
		t.Fatalf("never-trigger run (%.6f) differs from its own baseline (%.6f)",
			res.Timeline.TotalTime, res.NoLBTime)
	}
}

func TestRuntimePlannerReplaysPlan(t *testing.T) {
	e := mustRuntime(t, 4,
		ulba.WithWorkload(ulba.LinearWorkload{Seed: 3}),
		ulba.WithIterations(100),
		ulba.WithPlanner(ulba.PeriodicPlanner{Every: 25}))
	want := ulba.Schedule{25, 50, 75}
	if !reflect.DeepEqual(e.PlannedSchedule(), want) {
		t.Fatalf("planned schedule = %v, want %v", e.PlannedSchedule(), want)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A plan entry k re-partitions before iteration k executes, so the
	// balancer runs right after iteration k-1 and is recorded there.
	if !reflect.DeepEqual(res.Timeline.LBIters, []int{24, 49, 74}) {
		t.Fatalf("runtime LB iterations %v did not replay the plan %v",
			res.Timeline.LBIters, want)
	}
}

func TestRuntimeScheduleTriggerReplaysExactly(t *testing.T) {
	// A ScheduleTrigger installed directly through WithTrigger gets the
	// same no-warmup treatment as the planner path: the balancer fires
	// exactly at the plan's iterations, with no forced warmup call.
	res, err := mustRuntime(t, 4,
		ulba.WithWorkload(ulba.LinearWorkload{Seed: 3}),
		ulba.WithIterations(100),
		ulba.WithTrigger(ulba.ScheduleTrigger{Schedule: ulba.Schedule{25, 50}}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Timeline.LBIters, []int{24, 49}) {
		t.Fatalf("LB iterations %v, want exactly the plan [24 49]", res.Timeline.LBIters)
	}
	// The registered default carries an empty plan: truly never fires.
	trig, err := ulba.NewTrigger("schedule")
	if err != nil {
		t.Fatal(err)
	}
	res, err = mustRuntime(t, 4, ulba.WithIterations(60),
		ulba.WithTrigger(trig)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.LBCount() != 0 {
		t.Fatalf("empty-plan schedule trigger balanced %d times", res.Timeline.LBCount())
	}
}

func TestRuntimePlannerWithExplicitModel(t *testing.T) {
	// An explicit WithModel overrides the workload's own description, so
	// planners work on workloads that cannot model themselves.
	mp := ulba.ModelParams{
		P: 4, N: 1, Gamma: 100, W0: 4e9, A: 1e6, M: 4e7,
		Omega: 1e9, C: 0.05,
	}
	mp.DeltaW = mp.A*float64(mp.P) + mp.M*float64(mp.N)
	e := mustRuntime(t, 4,
		ulba.WithWorkload(ulba.BurstyWorkload{}),
		ulba.WithIterations(100),
		ulba.WithModel(mp),
		ulba.WithPlanner(ulba.SigmaPlusPlanner{}))
	if len(e.PlannedSchedule()) == 0 {
		t.Fatalf("expected a non-empty planned schedule")
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeRunConcurrentWithConfig(t *testing.T) {
	// The first Run materializes the scenario grid while other goroutines
	// run and read the configuration: under -race this pins that the
	// build stays out of the RuntimeConfig Config returns, and every
	// concurrent Run still sees the one result.
	e := mustRuntime(t, 4, ulba.WithWorkload(ulba.StationaryWorkload{Seed: 9}), ulba.WithIterations(60))
	want, err := mustRuntime(t, 4, ulba.WithWorkload(ulba.StationaryWorkload{Seed: 9}), ulba.WithIterations(60)).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := e.Run(context.Background())
			if err == nil && !reflect.DeepEqual(got, want) {
				err = errors.New("concurrent Run differs from a fresh run")
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			if cfg := e.Config(); cfg.Table != nil || cfg.Items != 256 {
				errs <- errors.New("Config exposes the materialized table or lost its grid")
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRuntimeRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mustRuntime(t, 4).Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// pinnedScenarios samples the pinned scenario mix shared with the
// benchmark harness.
func pinnedScenarios(t *testing.T, n int) []*ulba.RuntimeExperiment {
	t.Helper()
	exps, _, err := cli.BuildScenarios(2019, n)
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

func TestRuntimeSweepWorkerCountInvariant(t *testing.T) {
	// The acceptance golden test: on a pinned seed, the sweep aggregation
	// is bit-identical for workers 1, 4, and GOMAXPROCS.
	ctx := context.Background()
	exps := pinnedScenarios(t, 8)

	var refSum ulba.RuntimeSweepSummary
	var refResults []ulba.RuntimeResult
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		sum, results, err := sweep.Run(ctx, exps)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refSum, refResults = sum, results
			continue
		}
		if sum != refSum {
			t.Fatalf("workers=%d summary differs:\n%+v\n%+v", workers, sum, refSum)
		}
		if !reflect.DeepEqual(results, refResults) {
			t.Fatalf("workers=%d per-scenario results differ", workers)
		}
	}
	if refSum.Scenarios != 8 || refSum.MeanLBCalls <= 0 {
		t.Fatalf("suspicious summary: %+v", refSum)
	}
}

func TestRuntimeSweepStreamDeliversAll(t *testing.T) {
	ctx := context.Background()
	exps := pinnedScenarios(t, 6)
	sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range sweep.Stream(ctx, exps) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != len(exps) {
		t.Fatalf("delivered %d of %d scenarios", len(seen), len(exps))
	}
}

func TestRuntimeSweepNilScenarioError(t *testing.T) {
	// The reported error must be the nil scenario's own error — not a
	// context cancellation leaking from the early-stop of the dispatch —
	// and identical for every worker count: a sibling's failure must not
	// corrupt the scenarios already in flight.
	for _, workers := range []int{1, 2, 8} {
		exps := pinnedScenarios(t, 5)
		exps[3] = nil
		sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = sweep.Run(context.Background(), exps)
		if err == nil {
			t.Fatal("expected an error for the nil scenario")
		}
		if want := "ulba: runtime sweep scenario 3 is nil"; err.Error() != want {
			t.Fatalf("workers=%d reported %q, want %q", workers, err, want)
		}
	}
}

func TestRuntimeSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sweep, err := ulba.NewRuntimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweep.Run(ctx, pinnedScenarios(t, 4)); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

func TestRuntimeSweepRejectsForeignOptions(t *testing.T) {
	for _, opt := range []ulba.Option{
		ulba.WithAlphaGrid(10),
		ulba.WithWorkload(ulba.LinearWorkload{}),
		ulba.WithPlanner(ulba.SigmaPlusPlanner{}),
	} {
		if _, err := ulba.NewRuntimeSweep(opt); err == nil {
			t.Fatal("expected a scope error")
		}
	}
}

func TestRuntimeSweepEmpty(t *testing.T) {
	sweep, err := ulba.NewRuntimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	sum, results, err := sweep.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 0 || len(results) != 0 {
		t.Fatalf("empty sweep produced %+v", sum)
	}
}
