package ulba

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ulba/internal/lb"
	"ulba/internal/mpisim"
)

// A waiter that gives up on a memoized run gets its context error, and the
// run it started still completes for every later waiter: a cancellation
// never poisons a shared no-LB baseline.
func TestSynthRunSurvivesCancelledWaiter(t *testing.T) {
	e, err := NewRuntime(4, WithIterations(40), WithTrigger(NeverTrigger{}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	want, err := (&synthRun{}).wait(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	shared := &synthRun{}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := shared.wait(cancelled, cfg); err == nil && !reflect.DeepEqual(got, want) {
		t.Fatal("a waiter whose run finished first got a wrong timeline")
	} else if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	for range 2 {
		got, err := shared.wait(context.Background(), cfg)
		if err != nil {
			t.Fatalf("waiter after a cancellation returned %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("memoized run differs from a fresh one")
		}
	}
}

// The cells of one assessment column share one materialization and one
// baseline; distinct columns do not.
func TestAssessmentColumnsShareMaterialization(t *testing.T) {
	crits := []Criterion{
		{Trigger: &TriggerSpec{Name: "degradation"}},
		{Trigger: &TriggerSpec{Name: "menon"}},
		{Planner: &PlannerSpec{Name: "sigma+"}},
	}
	scens := []AssessmentScenario{
		{P: 4, Iterations: 30, Workload: &WorkloadSpec{Name: "linear", Seed: 1}},
		{P: 4, Iterations: 30, Workload: &WorkloadSpec{Name: "minife", Seed: 2}},
	}
	a, err := NewAssessment(crits, scens)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range crits {
		for si := range scens {
			cell, head := a.cells[ci*len(scens)+si], a.cells[si]
			if cell.grid != head.grid || cell.noLB != head.noLB || cell.noLB == nil {
				t.Fatalf("cell (%d, %d) does not share its column's materialization", ci, si)
			}
		}
	}
	if a.cells[0].grid == a.cells[1].grid || a.cells[0].noLB == a.cells[1].noLB {
		t.Fatal("two scenario columns share a materialization")
	}
	if _, _, err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.cells[0].grid.table == nil {
		t.Fatal("running the assessment did not table the column")
	}
}

// estimateLBCost holds copies of two of internal/lb's LB-step constants. On
// one rank and a free network a LB step is only the partition scan and the
// rebuild, so the estimate must equal the measured step.
func TestEstimateLBCostMatchesSingleRankStep(t *testing.T) {
	cfg := RuntimeConfig{
		P:          1,
		Items:      64,
		Iterations: 3,
		Weight:     func(int, int) float64 { return 1 },
		Cost:       mpisim.CostModel{FLOPS: 1e9},
	}.Normalized()
	res, err := lb.RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() == 0 {
		t.Fatal("the warmup LB step did not run")
	}
	want := estimateLBCost(cfg)
	if got := res.LBCosts[0]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("measured LB step %g s, estimate %g s", got, want)
	}
}
