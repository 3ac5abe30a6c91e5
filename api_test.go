package ulba_test

import (
	"context"
	"math"
	"testing"

	"ulba"
)

func sampleParams(t *testing.T) ulba.ModelParams {
	t.Helper()
	ps := ulba.SampleInstances(7, 1)
	if len(ps) != 1 {
		t.Fatal("sampling failed")
	}
	return ps[0]
}

func TestFacadeModelRoundTrip(t *testing.T) {
	p := sampleParams(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("sampled instance invalid: %v", err)
	}
	std := ulba.StandardTotalTime(p)
	ul := ulba.ULBATotalTime(p, 0)
	if math.Abs(std-ul) > 1e-9*std {
		t.Errorf("alpha=0 ULBA %v != standard %v", ul, std)
	}
	alpha, best := ulba.BestAlpha(p, 21)
	if best > std*(1+1e-12) {
		t.Errorf("best alpha %v gives %v worse than standard %v", alpha, best, std)
	}
}

func TestFacadeSchedules(t *testing.T) {
	p := sampleParams(t)
	sp, err := ulba.SigmaPlusPlanner{}.Plan(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(p.Gamma); err != nil {
		t.Fatalf("sigma+ schedule invalid: %v", err)
	}
	menon, err := ulba.MenonPlanner{}.Plan(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := menon.Validate(p.Gamma); err != nil {
		t.Fatalf("Menon schedule invalid: %v", err)
	}
	// Evaluating the sigma+ schedule must match the facade total.
	if got := ulba.EvaluateSchedule(p, sp); math.Abs(got-ulba.ULBATotalTime(p, p.Alpha)) > 1e-9*got {
		t.Errorf("EvaluateSchedule %v != ULBATotalTime %v", got, ulba.ULBATotalTime(p, p.Alpha))
	}
	annealed, err := ulba.AnnealPlanner{Steps: 3000, Seed: 1}.Plan(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := annealed.Validate(p.Gamma); err != nil {
		t.Fatalf("annealed schedule invalid: %v", err)
	}
}

func TestFacadeIntervalBounds(t *testing.T) {
	p := sampleParams(t)
	sm, err := p.SigmaMinus(0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := p.SigmaPlus(0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sm) >= sp {
		t.Errorf("sigma- %d not below sigma+ %v", sm, sp)
	}
	tau, err := p.WithAlpha(0).MenonTau()
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 {
		t.Errorf("Menon tau = %v", tau)
	}
}

func TestFacadeRunBothMethods(t *testing.T) {
	app := ulba.DefaultAppConfig(8)
	app.StripeWidth = 48
	app.Height = 100
	app.Radius = 12
	run := func(m ulba.Method) ulba.RunResult {
		t.Helper()
		e, err := ulba.New(8, ulba.WithApp(app), ulba.WithIterations(40),
			ulba.WithZThreshold(2.0), ulba.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	std, ul := run(ulba.Standard), run(ulba.ULBA)
	if std.TotalTime <= 0 || ul.TotalTime <= 0 {
		t.Error("runs did not progress")
	}
	if std.Eroded != ul.Eroded {
		t.Errorf("physics differ across methods: %d vs %d", std.Eroded, ul.Eroded)
	}
}

// The default run configuration New starts from validates for both methods.
func TestDefaultRunConfigValid(t *testing.T) {
	for _, m := range []ulba.Method{ulba.Standard, ulba.ULBA} {
		e, err := ulba.New(16, ulba.WithMethod(m))
		if err != nil {
			t.Fatalf("default experiment for %v rejected: %v", m, err)
		}
		if err := e.Config().Validate(); err != nil {
			t.Errorf("default config for %v invalid: %v", m, err)
		}
	}
}

func TestSampleInstancesCount(t *testing.T) {
	ps := ulba.SampleInstances(3, 25)
	if len(ps) != 25 {
		t.Fatalf("got %d instances", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
