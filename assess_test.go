package ulba_test

import (
	"context"
	"reflect"
	"testing"

	"ulba"
)

// TestAssessmentCellsMatchIndependentRuns is the differential test of the
// shared materialization: every cell of an assessment — whose column shares
// one weight table and one no-LB baseline across criteria — is bit-identical
// to the same criterion x scenario built alone with NewRuntime. The panel
// mixes triggers and planners, one column is heterogeneous, and a run
// cancelled part-way must leave the shared state sound for the rerun.
func TestAssessmentCellsMatchIndependentRuns(t *testing.T) {
	crits := []ulba.Criterion{
		{Trigger: &ulba.TriggerSpec{Name: "degradation"}},
		{Trigger: &ulba.TriggerSpec{Name: "periodic", Every: 8}},
		{Trigger: &ulba.TriggerSpec{Name: "wli", Threshold: 0.2}},
		{Planner: &ulba.PlannerSpec{Name: "sigma+"}},
		{Planner: &ulba.PlannerSpec{Name: "periodic", Every: 10}},
	}
	scens := []ulba.AssessmentScenario{
		{P: 4, Iterations: 60, Workload: &ulba.WorkloadSpec{Name: "linear", Seed: 3}},
		{P: 4, Iterations: 40, Workload: &ulba.WorkloadSpec{Name: "amr", Seed: 5}, Speeds: []float64{1, 2.5, 1, 4}},
		{P: 8, Workload: &ulba.WorkloadSpec{Name: "minife", Seed: 7}},
	}
	ctx := context.Background()

	want := make([]ulba.RuntimeResult, 0, len(crits)*len(scens))
	for _, c := range crits {
		for _, sc := range scens {
			opts := []ulba.Option{}
			if sc.Iterations != 0 {
				opts = append(opts, ulba.WithIterations(sc.Iterations))
			}
			if sc.Speeds != nil {
				opts = append(opts, ulba.WithSpeeds(sc.Speeds))
			}
			w, err := sc.Workload.Workload()
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, ulba.WithWorkload(w))
			if c.Trigger != nil {
				tr, err := c.Trigger.Trigger()
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, ulba.WithTrigger(tr))
			} else {
				pl, err := c.Planner.Planner()
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, ulba.WithPlanner(pl))
			}
			res, err := mustRuntime(t, sc.P, opts...).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}

	check := func(name string, got []ulba.RuntimeResult) {
		t.Helper()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: cell %d (criterion %q, scenario %d) differs from its independent run",
					name, i, crits[i/len(scens)].DisplayName(), i%len(scens))
			}
		}
	}
	for _, workers := range []int{1, 3} {
		a, err := ulba.NewAssessment(crits, scens, ulba.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := a.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		check("fresh run", got)

		// Cancel after the first cell lands, while later cells may be
		// waiting on a column's shared table or baseline, then rerun.
		cctx, cancel := context.WithCancel(ctx)
		cancelled, err := ulba.NewAssessment(crits, scens, ulba.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		stream := cancelled.Stream(cctx)
		<-stream
		cancel()
		for range stream {
		}
		_, got, err = cancelled.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		check("rerun after cancel", got)
	}
}
