package ulba_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/engine"
	"ulba/internal/experiments"
	"ulba/internal/lb"
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

// The served erosion application (§IV-B, Algorithm 2): the benchmark's
// erosion-cold body (ULBA against its standard baseline, p=8, 40
// iterations) at two rock seeds; a comparison under adaptive alpha at p=16
// over 80 iterations, long enough for ULBA to underload the overloading PE
// and save an LB call; and one standard run on the recursive-bisection
// partitioner. Gain and the baseline's LB calls exist only for a
// comparison; without one they are pinned absent (nil and -1).
func TestDeterminismPinErosionCompare(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	cases := []struct {
		body         string
		sha          string
		gain         any
		lb, baseline int
	}{
		{`{"p":8,"method":"ulba","iterations":40,"seed":2019,"compare":true}`,
			"d8ebc7924f2c00ea972e70de8dfd548f72c4c89a1f698d0fa75ea6e36d8415a7", 0.0, 2, 2},
		{`{"p":8,"method":"ulba","iterations":40,"seed":2020,"compare":true}`,
			"029929ba1e0409e083be55d60fb62fa5b9f8eefc9631938528a42efb2844096c", 0.0, 2, 2},
		{`{"p":16,"method":"ulba","adaptive_alpha":true,"iterations":80,"seed":2019,"compare":true}`,
			"eef68db28d5bedd1b6026698167044547c50d5da9e6099c38ebdb184213fa10a", 0.04913699802751238, 2, 3},
		{`{"p":8,"iterations":40,"seed":2019,"rcb":true}`,
			"7a03f70ebe955fd96253d09fd5d5a85d9f233a241d550bd44f12533daddfdc9a", nil, 2, -1},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiment", strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.body, rec.Code, rec.Body)
		}
		var resp engine.ExperimentResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		var gain any
		if resp.Gain != nil {
			gain = *resp.Gain
		}
		baseline := -1
		if resp.Baseline != nil {
			baseline = resp.Baseline.LBCount()
		}
		checkPins(t, []pin{
			{c.body + " response_sha256", sha256Hex(rec.Body.Bytes()), c.sha},
			{c.body + " gain", gain, c.gain},
			{c.body + " lb_calls", resp.Result.LBCount(), c.lb},
			{c.body + " baseline_lb_calls", baseline, c.baseline},
		})
	}
}

// bitsSHA is the SHA-256 over the little-endian bits of vals: float64s,
// ints, and length-prefixed slices of either.
func bitsSHA(vals ...any) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	for _, v := range vals {
		switch v := v.(type) {
		case int:
			put(int64(v))
		case []int:
			put(int64(len(v)))
			for _, x := range v {
				put(int64(x))
			}
		case []float64:
			put(int64(len(v)))
			put(v)
		default:
			put(v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// resultSHA pins every deterministic field of one erosion run.
func resultSHA(r lb.Result) string {
	return bitsSHA(r.TotalTime, r.IterTimes, r.Usage, r.LBIters, r.LBCosts,
		r.LBOverloading, r.Eroded, r.FinalWorkload, r.FinalBounds)
}

// The figure drivers at bench scale: Fig. 4a at P 16 and 32 with 1-3
// strongly erodible rocks, Fig. 4b at P 16, Fig. 5 at P 16 over alphas
// 0.1-0.5, and one run per ablation the benchmarks in bench_test.go make
// (P 16, one rock, seed 1). Fig. 4a cells and Fig. 5 points pin every field
// the drivers return; Fig. 4b and the ablations pin whole runs. ULBA must
// underload somewhere, or the pins would not cover Algorithm 2.
func TestDeterminismPinFigures(t *testing.T) {
	s := experiments.BenchScale()
	var pins []pin
	add := func(name, got, want string) { pins = append(pins, pin{name, got, want}) }

	fig4a := []string{
		"753183a02d4b65d53bb76d8972552a4cc63bd0f3a9c207b8bdfe7e6ac686ee02", // rocks 1, P 16
		"7991c3064e5d84d3c6da69f996dc2e4b26a5fa902412a60157696a08cb283fd1", // rocks 1, P 32
		"1ea90545451032efd8bd6f43416e5dd788219a93a29465fb1e0949b5952a08d4", // rocks 2, P 16
		"589e220b6d65370fb01451dcdc4321323045c13b7c1b4be61a91fe200b449dee", // rocks 2, P 32
		"694ea6b641bbe6ac36e7d8822a9d1632e68c95da86800ed08eddf09eaa339d81", // rocks 3, P 16
		"36ad2f3e3ce3f328a5f5ca3bc2a73ffe1c297698170509ac64ea363098643c86", // rocks 3, P 32
	}
	cells := experiments.RunFig4a(s, []int{16, 32}, []int{1, 2, 3}, 0.4)
	if len(cells) != len(fig4a) {
		t.Fatalf("Fig. 4a has %d cells, want %d", len(cells), len(fig4a))
	}
	for i, c := range cells {
		add(fmt.Sprintf("fig4a rocks=%d P=%d", c.Rocks, c.P),
			bitsSHA(c.P, c.Rocks, c.StdTime, c.ULBATime, c.StdCalls, c.ULBACall, c.StdUsage, c.ULBAUse, c.Gain), fig4a[i])
	}

	f4b := experiments.RunFig4b(s, 16, 0.4)
	add("fig4b standard", resultSHA(f4b.Std), "41f4d73192576632aeb3602a1b2c4235c53a5b22f097b069c9ea6cb7d61efd55")
	add("fig4b ulba", resultSHA(f4b.ULBA), "a0595fa4882b1028b9985e8452ff2efc915727abb3d9c93a7a26df13743a5faa")

	fig5 := []string{
		"ba0be769a818142329ef1657ae6a8bb73c2ec79b3975e04d70293dbd57b338aa", // alpha 0.1
		"d6b31456d1159a5d169132de69940556429a2871153676241cb7f66f3022b240", // alpha 0.2
		"856e7e02d0724ee5b25bcac2c73905d60803052a8ef14bf674369eaf8ecb73d5", // alpha 0.3
		"6aed6a7edeb734ef24a3443dba26771362c39c299c4dd66fd3fbe3299d1697e5", // alpha 0.4
		"bf2f3704757f4d5b75f26b544ec6fabf735787d530649d95eeb57ffd5347e5b9", // alpha 0.5
	}
	points := experiments.RunFig5(s, []int{16}, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
	if len(points) != len(fig5) {
		t.Fatalf("Fig. 5 has %d points, want %d", len(points), len(fig5))
	}
	for i, pt := range points {
		add(fmt.Sprintf("fig5 alpha=%.1f", pt.Alpha),
			bitsSHA(pt.P, pt.Alpha, pt.Time, pt.Calls, pt.Usage), fig5[i])
	}

	ablations := []struct {
		name   string
		method lb.Method
		mut    func(*lb.Config)
		sha    string
	}{
		{"menon-tau", lb.Standard, func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return lb.NewMenonTau() }
		}, "17b85afe30deeda799230f2aba275f4008dd53b68648cb1182ef242b157d48a3"},
		{"periodic-10", lb.Standard, func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return &lb.Periodic{K: 10} }
			c.WarmupLB = -1
		}, "8b23898dce6c8ff2c4cff144c318f147f285d2f28f4e5f2b461ba1e4ed0c1c0f"},
		{"never", lb.Standard, func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return lb.Never{} }
			c.WarmupLB = -1
		}, "8b2d0477c637161414587de5229c0d265db804e9a9db700704e552a0fc01b9e1"},
		{"rcb", lb.Standard, func(c *lb.Config) { c.UseRCB = true },
			"d236568705960408fcf4ef8a5db077921ea45b49fd887e7656796b33c4033641"},
		{"without-overhead", lb.ULBA, func(c *lb.Config) { c.IncludeOverhead = false },
			"a0595fa4882b1028b9985e8452ff2efc915727abb3d9c93a7a26df13743a5faa"},
		{"adaptive-alpha", lb.ULBA, func(c *lb.Config) { c.AdaptiveAlpha = true },
			"dc8dbfb57f2863ae007c9dd7aea209187c92fdfa5a26693cf7afd1010c97cadc"},
		{"z=2", lb.ULBA, func(c *lb.Config) { c.ZThreshold = 2 },
			"a0595fa4882b1028b9985e8452ff2efc915727abb3d9c93a7a26df13743a5faa"},
		{"z=4", lb.ULBA, func(c *lb.Config) { c.ZThreshold = 4 },
			"41f4d73192576632aeb3602a1b2c4235c53a5b22f097b069c9ea6cb7d61efd55"},
		{"noise standard", lb.Standard, func(c *lb.Config) { c.OSNoise = 2e-4 },
			"54de024997f4d766ea539a6c5da6cc3cfea8b8ecb67f5c7c787b77e412a1c2fc"},
		{"noise ulba", lb.ULBA, func(c *lb.Config) { c.OSNoise = 2e-4 },
			"7f61fb2a2c373688229776f2787d65296a73955c55a83d519084f4fb33001b08"},
	}
	for _, a := range ablations {
		cfg := s.LBConfig(16, 1, 1, a.method, 0.4)
		a.mut(&cfg)
		add("ablation "+a.name, resultSHA(runErosion(t, cfg)), a.sha)
	}
	checkPins(t, pins)

	if !slices.ContainsFunc(f4b.ULBA.LBOverloading, func(n int) bool { return n > 0 }) {
		t.Errorf("Fig. 4b's ULBA run never underloaded: LBOverloading %v", f4b.ULBA.LBOverloading)
	}
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
