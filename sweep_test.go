package ulba_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ulba"
)

// Sweeps must be bit-identical across worker counts: same instances, same
// comparisons, same aggregate, regardless of scheduling order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	params := ulba.SampleInstances(2019, 60)

	run := func(workers int) (ulba.SweepSummary, []ulba.Comparison) {
		s, err := ulba.NewSweep(ulba.WithWorkers(workers), ulba.WithAlphaGrid(21))
		if err != nil {
			t.Fatal(err)
		}
		sum, comps, err := s.Run(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		return sum, comps
	}

	sum1, comps1 := run(1)
	sumN, compsN := run(8)
	if !reflect.DeepEqual(comps1, compsN) {
		t.Error("per-instance comparisons differ between 1 and 8 workers")
	}
	if sum1 != sumN {
		t.Errorf("aggregates differ:\n 1 worker: %+v\n 8 workers: %+v", sum1, sumN)
	}
	if sum1.Instances != len(params) {
		t.Errorf("summary counts %d instances, want %d", sum1.Instances, len(params))
	}
	// The alpha grid contains 0, so ULBA can never lose.
	for i, c := range comps1 {
		if c.Gain < 0 {
			t.Errorf("instance %d: negative gain %v", i, c.Gain)
		}
	}
}

// The default sweep must agree with the facade free functions.
func TestSweepMatchesFacadeEvaluation(t *testing.T) {
	params := ulba.SampleInstances(7, 10)
	s, err := ulba.NewSweep(ulba.WithAlphaGrid(21))
	if err != nil {
		t.Fatal(err)
	}
	_, comps, err := s.Run(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range comps {
		if want := ulba.StandardTotalTime(params[i]); c.StdTime != want {
			t.Errorf("instance %d: StdTime %v != facade %v", i, c.StdTime, want)
		}
		alpha, best := ulba.BestAlpha(params[i], 21)
		if c.ULBATime != best || c.BestAlpha != alpha {
			t.Errorf("instance %d: ULBA (%v at %v) != facade (%v at %v)",
				i, c.ULBATime, c.BestAlpha, best, alpha)
		}
	}
}

// A sweep over a custom planner evaluates ULBA on that planner's schedules.
func TestSweepWithPlanner(t *testing.T) {
	params := ulba.SampleInstances(3, 8)
	s, err := ulba.NewSweep(
		ulba.WithPlanner(ulba.PeriodicPlanner{Every: 10}),
		ulba.WithAlphaGrid(11),
		ulba.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, comps, err := s.Run(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range comps {
		pa := params[i].WithAlpha(c.BestAlpha)
		sched, err := ulba.PeriodicPlanner{Every: 10}.Plan(pa, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := ulba.EvaluateSchedule(pa, sched); c.ULBATime != want {
			t.Errorf("instance %d: ULBATime %v != periodic-schedule evaluation %v", i, c.ULBATime, want)
		}
	}
}

func TestSweepOptionValidation(t *testing.T) {
	if _, err := ulba.NewSweep(ulba.WithAlphaGrid(0)); err == nil {
		t.Error("alpha grid 0 accepted")
	}
	if _, err := ulba.NewSweep(ulba.WithPlanner(ulba.PeriodicPlanner{})); err == nil {
		t.Error("periodic planner without interval accepted")
	}
	if _, err := ulba.NewSweep(ulba.WithMethod(ulba.ULBA)); err == nil {
		t.Error("experiment-only option accepted by NewSweep")
	}
}

func TestSweepCancelledMidway(t *testing.T) {
	// A large batch with an expensive planner so cancellation lands while
	// instances are still pending.
	params := ulba.SampleInstances(11, 500)
	s, err := ulba.NewSweep(ulba.WithWorkers(2), ulba.WithPlanner(ulba.AnnealPlanner{Steps: 4000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _, err = s.Run(ctx, params)
	if err != context.Canceled {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// failingPlanner errors on every instance; the sweep must surface the
// error for the lowest input index and abort the remaining dispatch.
type failingPlanner struct{}

func (failingPlanner) Name() string { return "failing" }

func (failingPlanner) Plan(p ulba.ModelParams, gamma int) (ulba.Schedule, error) {
	return nil, errors.New("synthetic plan failure")
}

func TestSweepPlannerErrorAbortsRun(t *testing.T) {
	params := ulba.SampleInstances(13, 40)
	s, err := ulba.NewSweep(ulba.WithWorkers(4), ulba.WithAlphaGrid(5), ulba.WithPlanner(failingPlanner{}))
	if err != nil {
		t.Fatal(err)
	}
	sum, comps, err := s.Run(context.Background(), params)
	if err == nil {
		t.Fatal("sweep with a failing planner returned no error")
	}
	if !strings.Contains(err.Error(), `planner "failing"`) || !strings.Contains(err.Error(), "synthetic plan failure") {
		t.Errorf("error %q does not identify the planner and cause", err)
	}
	// Deterministic reporting: with every instance failing, the surfaced
	// error belongs to input index 0 regardless of worker scheduling.
	if !strings.Contains(err.Error(), params[0].String()) {
		t.Errorf("error %q is not the lowest-index instance's", err)
	}
	if sum.Instances != 0 || comps != nil {
		t.Errorf("failed sweep leaked results: %+v, %d comps", sum, len(comps))
	}
}

// Cancelling the consumer's context mid-stream stops dispatch: the stream
// delivers the instances already in flight, then closes without touching
// the rest. The planner is expensive so that dispatch is still in progress
// when the cancellation lands.
func TestSweepStreamCancelledMidConsumption(t *testing.T) {
	params := ulba.SampleInstances(17, 100)
	s, err := ulba.NewSweep(
		ulba.WithWorkers(2),
		ulba.WithAlphaGrid(5),
		ulba.WithPlanner(ulba.AnnealPlanner{Steps: 2000, Seed: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	for r := range s.Stream(ctx, params) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		delivered++
		cancel()
	}
	if delivered == 0 {
		t.Error("stream closed without delivering the in-flight instances")
	}
	if delivered >= len(params) {
		t.Errorf("stream delivered all %d instances despite cancellation", delivered)
	}
}

func TestSweepStreamIndexesComplete(t *testing.T) {
	params := ulba.SampleInstances(5, 20)
	s, err := ulba.NewSweep(ulba.WithWorkers(4), ulba.WithAlphaGrid(11))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range s.Stream(context.Background(), params) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != len(params) {
		t.Errorf("stream delivered %d of %d instances", len(seen), len(params))
	}
}

func TestSweepEmptyInput(t *testing.T) {
	s, err := ulba.NewSweep()
	if err != nil {
		t.Fatal(err)
	}
	sum, comps, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Instances != 0 || len(comps) != 0 {
		t.Errorf("empty sweep produced %+v", sum)
	}
}
