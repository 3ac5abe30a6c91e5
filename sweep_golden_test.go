package ulba_test

import (
	"context"
	"reflect"
	"testing"

	"ulba"
)

// slowSigmaPlanner plans the identical sigma+ schedules as SigmaPlusPlanner
// but, being a distinct (custom) type, forces the Sweep onto the general
// Planner.Plan path: materialize a Schedule per grid alpha and evaluate it
// — the pre-evaluator slow path.
type slowSigmaPlanner struct{}

func (slowSigmaPlanner) Name() string { return "sigma+slow" }

func (slowSigmaPlanner) Plan(p ulba.ModelParams, gamma int) (ulba.Schedule, error) {
	return ulba.SigmaPlusPlanner{}.Plan(p, gamma)
}

// Golden test for the evaluation core: the fast path (incremental
// evaluator, no per-alpha Schedule) must produce a SweepSummary and
// per-instance Comparisons bit-identical to the slow path. Any ulp of
// drift — re-association, fused multiply-add, different tie-breaking in the
// alpha scan — fails this test.
func TestSweepFastPathGoldenVsSlowPath(t *testing.T) {
	params := ulba.SampleInstances(2019, 300)

	run := func(opts ...ulba.Option) (ulba.SweepSummary, []ulba.Comparison) {
		t.Helper()
		s, err := ulba.NewSweep(append([]ulba.Option{ulba.WithAlphaGrid(100), ulba.WithWorkers(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		sum, comps, err := s.Run(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		return sum, comps
	}

	fastSum, fastComps := run()
	slowSum, slowComps := run(ulba.WithPlanner(slowSigmaPlanner{}))

	if fastSum != slowSum {
		t.Errorf("SweepSummary differs between fast and slow path:\nfast: %+v\nslow: %+v", fastSum, slowSum)
	}
	for i := range fastComps {
		if fastComps[i] != slowComps[i] {
			t.Fatalf("instance %d differs:\nfast: %+v\nslow: %+v", i, fastComps[i], slowComps[i])
		}
	}

	// An explicit SigmaPlusPlanner dispatches to the same fast path.
	explicitSum, explicitComps := run(ulba.WithPlanner(ulba.SigmaPlusPlanner{}))
	if explicitSum != fastSum || !reflect.DeepEqual(explicitComps, fastComps) {
		t.Error("explicit SigmaPlusPlanner sweep differs from the default fast path")
	}
}

// The explicit sigma+ fast path must validate exactly as loosely as the
// general Plan path: the instance's raw Alpha field is overridden by every
// grid alpha, so an out-of-range value there is not an error on either
// path.
func TestSweepExplicitSigmaPlusIgnoresRawAlpha(t *testing.T) {
	params := ulba.SampleInstances(31, 5)
	for i := range params {
		params[i].Alpha = 1.5 // out of [0,1]; overridden by the grid
	}
	run := func(pl ulba.Planner) ulba.SweepSummary {
		t.Helper()
		s, err := ulba.NewSweep(ulba.WithAlphaGrid(11), ulba.WithPlanner(pl))
		if err != nil {
			t.Fatal(err)
		}
		sum, _, err := s.Run(context.Background(), params)
		if err != nil {
			t.Fatalf("planner %q rejected an instance whose Alpha the grid overrides: %v", pl.Name(), err)
		}
		return sum
	}
	if fast, slow := run(ulba.SigmaPlusPlanner{}), run(slowSigmaPlanner{}); fast != slow {
		t.Errorf("paths disagree on raw-alpha instances:\nfast: %+v\nslow: %+v", fast, slow)
	}
}

// The facade free functions and the fast path share one evaluation core, so
// they must agree exactly, not just within tolerance.
func TestFacadeMatchesEvaluatorExactly(t *testing.T) {
	for i, p := range ulba.SampleInstances(42, 50) {
		pa := p.WithAlpha(0.37)
		sched, err := ulba.SigmaPlusPlanner{}.Plan(pa, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ulba.ULBATotalTime(p, 0.37), ulba.EvaluateSchedule(pa, sched); got != want {
			t.Errorf("instance %d: ULBATotalTime %v != schedule evaluation %v", i, got, want)
		}
	}
}
