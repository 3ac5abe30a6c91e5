package ulba_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ulba"
)

// smallApp shrinks the default instance so runtime tests stay fast.
func smallApp(p int) ulba.AppConfig {
	app := ulba.DefaultAppConfig(p)
	app.StripeWidth = 48
	app.Height = 100
	app.Radius = 12
	return app
}

// The zero-option Experiment carries the default run configuration, the
// paper's: the standard method on the default instance for 120 iterations,
// alpha 0.4, z-threshold 3.0 (after normalization), adaptive degradation
// trigger, overhead term included.
func TestExperimentDefaultsMatchDefaultRunConfig(t *testing.T) {
	e, err := ulba.New(16)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Config()
	want := ulba.RunConfig{
		App:             ulba.DefaultAppConfig(16),
		Iterations:      120,
		Cost:            ulba.DefaultCostModel(),
		Method:          ulba.Standard,
		Alpha:           0.4,
		IncludeOverhead: true,
	}.Normalized()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.ZThreshold != 3.0 {
		t.Errorf("default z-threshold = %g, want 3.0", got.ZThreshold)
	}
	if got.TriggerFactory != nil {
		t.Error("default experiment should fall back to the degradation trigger")
	}
	if e.Trigger() != nil || e.PlannedSchedule() != nil {
		t.Error("zero-option experiment should have no explicit policy attached")
	}
}

func TestExperimentEagerValidation(t *testing.T) {
	cases := []struct {
		name string
		p    int
		opts []ulba.Option
	}{
		{"bad PE count", 0, nil},
		{"bad alpha", 8, []ulba.Option{ulba.WithAlpha(1.5)}},
		{"bad iterations", 8, []ulba.Option{ulba.WithIterations(-1)}},
		{"bad z", 8, []ulba.Option{ulba.WithZThreshold(-2)}},
		{"periodic without interval", 8, []ulba.Option{ulba.WithTrigger(ulba.PeriodicTrigger{})}},
		{"planner without model", 8, []ulba.Option{ulba.WithPlanner(ulba.SigmaPlusPlanner{})}},
		{"planner and trigger", 8, []ulba.Option{
			ulba.WithModel(ulba.SampleInstances(1, 1)[0]),
			ulba.WithPlanner(ulba.SigmaPlusPlanner{}),
			ulba.WithTrigger(ulba.DegradationTrigger{}),
		}},
		{"sweep-only option", 8, []ulba.Option{ulba.WithAlphaGrid(10)}},
		{"zero option", 8, []ulba.Option{{}}},
	}
	for _, tc := range cases {
		if _, err := ulba.New(tc.p, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// Run and Compare return ctx.Err() on a context cancelled before or during
// the call. Mid-run, they return at once, without waiting for the physics,
// which they build inside the part they abandon.
func TestExperimentRunCancelled(t *testing.T) {
	e, err := ulba.New(8, ulba.WithApp(smallApp(8)), ulba.WithIterations(40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}

	// About half a second of work on two vCPUs, cancelled 5 ms in.
	long, err := ulba.New(64, ulba.WithMethod(ulba.ULBA))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for name, call := range map[string]func(context.Context) error{
		"Run":     func(ctx context.Context) error { _, err := long.Run(ctx); return err },
		"Compare": func(ctx context.Context) error { _, err := long.Compare(ctx); return err },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		start := time.Now()
		err := call(ctx)
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s took %v to return after a cancel at 5ms", name, took)
		}
		if err != context.Canceled {
			t.Errorf("%s cancelled mid-run returned %v, want context.Canceled", name, err)
		}
	}
	// Let the abandoned work finish, so it cannot leak into later tests'
	// timings or allocation counts.
	for deadline := time.Now().Add(time.Minute); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}

// A planner-driven experiment replays the planned schedule exactly: one LB
// call per plan entry, regardless of the measured iteration times.
func TestExperimentPlannedSchedule(t *testing.T) {
	mp := ulba.SampleInstances(7, 1)[0]
	e, err := ulba.New(8,
		ulba.WithMethod(ulba.ULBA),
		ulba.WithApp(smallApp(8)),
		ulba.WithIterations(40),
		ulba.WithModel(mp),
		ulba.WithPlanner(ulba.PeriodicPlanner{Every: 9}),
	)
	if err != nil {
		t.Fatal(err)
	}
	planned := e.PlannedSchedule()
	if planned.Count() == 0 {
		t.Fatal("empty planned schedule")
	}
	if err := planned.Validate(40); err != nil {
		t.Fatalf("planned schedule invalid: %v", err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() != planned.Count() {
		t.Errorf("run made %d LB calls, plan has %d", res.LBCount(), planned.Count())
	}
}

// PlannedTotalTime is the evaluator-backed model prediction: it must equal
// evaluating the planned schedule on the model exactly, exist only for
// planner-driven experiments, and for sigma+ match the public facade.
func TestExperimentPlannedTotalTime(t *testing.T) {
	mp := ulba.SampleInstances(9, 1)[0]

	e, err := ulba.New(8, ulba.WithApp(smallApp(8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PlannedTotalTime(); ok {
		t.Error("trigger-driven experiment reports a planned total time")
	}

	for _, pl := range []ulba.Planner{ulba.SigmaPlusPlanner{}, ulba.PeriodicPlanner{Every: 9}} {
		// ULBA experiment: predicted at the run's alpha (0.55 here), not
		// the model's.
		e, err := ulba.New(8,
			ulba.WithMethod(ulba.ULBA),
			ulba.WithAlpha(0.55),
			ulba.WithApp(smallApp(8)),
			ulba.WithIterations(40),
			ulba.WithModel(mp),
			ulba.WithPlanner(pl),
		)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := e.PlannedTotalTime()
		if !ok {
			t.Fatalf("planner %q: no planned total time", pl.Name())
		}
		mp40 := mp
		mp40.Gamma = 40
		if want := ulba.EvaluateSchedule(mp40.WithAlpha(0.55), e.PlannedSchedule()); got != want {
			t.Errorf("planner %q: PlannedTotalTime %v != schedule evaluation %v", pl.Name(), got, want)
		}

		// Standard-method experiment on the same plan: predicted with
		// Eq. 2, which EvaluateSchedule at alpha = 0 recovers exactly.
		es, err := ulba.New(8,
			ulba.WithApp(smallApp(8)),
			ulba.WithIterations(40),
			ulba.WithModel(mp),
			ulba.WithPlanner(pl),
		)
		if err != nil {
			t.Fatal(err)
		}
		gotStd, ok := es.PlannedTotalTime()
		if !ok {
			t.Fatalf("planner %q: standard experiment has no planned total time", pl.Name())
		}
		if want := ulba.EvaluateSchedule(mp40.WithAlpha(0), es.PlannedSchedule()); gotStd != want {
			t.Errorf("planner %q: standard PlannedTotalTime %v != alpha-0 evaluation %v", pl.Name(), gotStd, want)
		}
	}
}

func TestExperimentTriggerByName(t *testing.T) {
	trig, err := ulba.NewTrigger("never")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ulba.New(8,
		ulba.WithApp(smallApp(8)),
		ulba.WithIterations(30),
		ulba.WithTrigger(trig),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() != 0 {
		t.Errorf("never trigger made %d LB calls", res.LBCount())
	}
}

func TestExperimentCompareWorkersIrrelevant(t *testing.T) {
	build := func(workers int) ulba.MethodComparison {
		e, err := ulba.New(8,
			ulba.WithMethod(ulba.ULBA),
			ulba.WithApp(smallApp(8)),
			ulba.WithIterations(40),
			ulba.WithZThreshold(2.0),
			ulba.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := e.Compare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	seq := build(1)
	par := build(4)
	if seq.Baseline.TotalTime != par.Baseline.TotalTime || seq.Result.TotalTime != par.Result.TotalTime {
		t.Error("Compare results depend on the worker count")
	}
	if seq.Baseline.Eroded != seq.Result.Eroded {
		t.Errorf("physics differ across methods: %d vs %d", seq.Baseline.Eroded, seq.Result.Eroded)
	}
	if g := seq.Gain(); g != (seq.Baseline.TotalTime-seq.Result.TotalTime)/seq.Baseline.TotalTime {
		t.Errorf("Gain() = %v inconsistent", g)
	}
}
