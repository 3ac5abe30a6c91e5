package ulba_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/schedule"
	"ulba/internal/server"
)

// The determinism pins: every deterministic field of the pinned workloads,
// compared exactly against literals recorded when the workloads were first
// pinned. A change here means results moved, not the clock: Eq. 4
// evaluation, the runtime engine, the exemplar workloads or the served
// bytes. Wall-clock performance is measured by the benchmark in bench/,
// never here.

// pinSeed seeds every pinned workload.
const pinSeed = 2019

// pin is one deterministic field: its name, the freshly computed value
// and the recorded literal.
type pin struct {
	name      string
	got, want any
}

func checkPins(t *testing.T, pins []pin) {
	t.Helper()
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s moved: pinned %v, got %v", p.name, p.want, p.got)
		}
	}
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// The model sweep: the paper's Fig. 3 workload at full Table II size. ULBA
// beats the standard method on 1,995 of the 2,000 instances.
func TestDeterminismPinModelSweep(t *testing.T) {
	sweep, err := ulba.NewSweep(ulba.WithAlphaGrid(100))
	if err != nil {
		t.Fatal(err)
	}
	sum, comps, err := sweep.Run(context.Background(), ulba.SampleInstances(pinSeed, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// Mean sigma+ schedule length at each instance's best alpha.
	var ev schedule.Evaluator
	steps := 0
	for _, c := range comps {
		steps += len(ev.SigmaPlus(c.Params.WithAlpha(c.BestAlpha)))
	}
	checkPins(t, []pin{
		{"median_gain", sum.Gains.Median, 0.043696562423614194},
		{"mean_gain", sum.Gains.Mean, 0.05324681167819973},
		{"mean_best_alpha", sum.MeanBestAlpha, 0.23625252525252186},
		{"ulba_wins", sum.ULBAWins, 1995},
		{"mean_lb_steps", float64(steps) / float64(len(comps)), 0.2275},
	})
}

// The runtime sweep: the 24 scenarios cli.BuildScenarios samples from the
// registered workloads.
func TestDeterminismPinRuntimeSweep(t *testing.T) {
	exps, _, err := cli.BuildScenarios(pinSeed, 24)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ulba.NewRuntimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := sweep.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, []pin{
		{"median_gain", sum.Gains.Median, 0.33439312408355193},
		{"mean_gain", sum.Gains.Mean, 0.29957622796596806},
		{"median_efficiency", sum.Efficiencies.Median, 0.9065451134072644},
		{"mean_lb_calls", sum.MeanLBCalls, 11.333333333333334},
		{"mean_usage", sum.MeanUsage, 0.8854553927394138},
		{"mean_wli", sum.MeanWLI, 0.16982442439443604},
	})
}

// The exemplar matrix: 30 cells, every combination of workload in
// {minife, amr, target}, five policies (degradation, wli and periodic
// triggers; sigma+ and periodic planners) and cluster in {homogeneous,
// heterogeneous [1, 2.5, 1, 4]}. Cell order is fixed, so the SHA-256 over
// the marshaled results pins every timeline bit.
func TestDeterminismPinExemplarMatrix(t *testing.T) {
	workloads := []ulba.WorkloadSpec{
		{Name: "minife", Seed: pinSeed},
		{Name: "amr", Seed: pinSeed},
		{Name: "target", Seed: pinSeed, Target: 2},
	}
	policies := []struct {
		trigger *ulba.TriggerSpec
		planner *ulba.PlannerSpec
	}{
		{trigger: &ulba.TriggerSpec{Name: "degradation"}},
		{trigger: &ulba.TriggerSpec{Name: "wli", Threshold: 0.2}},
		{trigger: &ulba.TriggerSpec{Name: "periodic", Every: 8}},
		{planner: &ulba.PlannerSpec{Name: "sigma+"}},
		{planner: &ulba.PlannerSpec{Name: "periodic", Every: 10}},
	}
	speedSets := [][]float64{nil, {1, 2.5, 1, 4}}

	var exps []*ulba.RuntimeExperiment
	for _, ws := range workloads {
		w, err := ws.Workload()
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			for _, speeds := range speedSets {
				opts := []ulba.Option{ulba.WithWorkload(w), ulba.WithIterations(60), ulba.WithWorkers(1)}
				if speeds != nil {
					opts = append(opts, ulba.WithSpeeds(speeds))
				}
				if pol.trigger != nil {
					trig, err := pol.trigger.Trigger()
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, ulba.WithTrigger(trig))
				}
				if pol.planner != nil {
					pl, err := pol.planner.Planner()
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, ulba.WithPlanner(pl))
				}
				exp, err := ulba.NewRuntime(4, opts...)
				if err != nil {
					t.Fatalf("%s cell: %v", ws.Name, err)
				}
				exps = append(exps, exp)
			}
		}
	}

	sweep, err := ulba.NewRuntimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	sum, results, err := sweep.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, []pin{
		{"cells", len(results), 30},
		{"results_sha256", sha256Hex(raw), "266cdb05f0211cdf7a72168c9e886879c56205587cd152c9f2beede3f6a2b1a9"},
		{"mean_gain", sum.Gains.Mean, 0.329802089226004},
		{"mean_wli", sum.MeanWLI, 0.2305936201949651},
	})
}

// The served bytes: one sweep body through the HTTP service. Sync-vs-job
// identity is the conformance suite's; this pins the bytes themselves.
func TestDeterminismPinServedSweep(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"sample":{"seed":2019,"n":200},"alpha_grid":50}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	checkPins(t, []pin{
		{"response_sha256", sha256Hex(rec.Body.Bytes()), "0ab477f5c6c1f40b53e4383f0fb42860a7c203a14115b449d92feddb4158b12f"},
	})
}

// The allocation gate of the runtime engine's clock-replay path: mallocs
// per scenario of one single-worker RuntimeSweep run over warm scenarios
// (weight tables built). The bound is 1.5x the count measured when the
// gate was set, wide enough for Go-version drift; it catches a
// reintroduced per-iteration allocation, not noise. Time is not gated
// here: the benchmark in bench/ measures it with repeats and spread.
func TestRuntimeSweepAllocsPerScenario(t *testing.T) {
	const (
		scenarios = 24
		measured  = 141.9 // mallocs per scenario when the gate was set (Go 1.24)
	)
	exps, _, err := cli.BuildScenarios(pinSeed, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// AllocsPerRun runs once untimed first, which builds the weight tables.
	perScenario := testing.AllocsPerRun(1, func() {
		if _, _, err := sweep.Run(ctx, exps); err != nil {
			t.Fatal(err)
		}
	}) / scenarios
	t.Logf("%.1f mallocs per scenario", perScenario)
	if limit := 1.5 * measured; perScenario > limit {
		t.Errorf("runtime sweep allocates %.1f times per scenario, above the gate of %.1f (1.5x %.1f)",
			perScenario, limit, measured)
	}
}
