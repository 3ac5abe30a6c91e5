package lb

import (
	"math"
	"testing"

	"ulba/internal/erosion"
	"ulba/internal/mpisim"
)

func testApp(p int) erosion.Config {
	return erosion.Config{
		P:           p,
		StripeWidth: 24,
		Height:      24,
		Radius:      6,
		StrongRocks: 1,
		ProbStrong:  0.4,
		ProbWeak:    0.02,
		Seed:        3,
		FlopPerUnit: 100,
	}
}

func testConfig(p int, m Method) Config {
	return Config{
		App:             testApp(p),
		Iterations:      60,
		Cost:            mpisim.CostModel{Latency: 5e-6, ByteTime: 1e-9, FLOPS: 1e9},
		Method:          m,
		Alpha:           0.4,
		ZThreshold:      2.0, // sqrt(P-1) caps the max z-score; 3.0 needs P >= 11
		IncludeOverhead: true,
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(4, Standard)
	if err := good.Normalized().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := map[string]func(*Config){
		"iters":      func(c *Config) { c.Iterations = 0 },
		"alpha":      func(c *Config) { c.Alpha = 1.5 },
		"method":     func(c *Config) { c.Method = Method(9) },
		"rcbUlba":    func(c *Config) { c.UseRCB = true; c.Method = ULBA },
		"warmupLate": func(c *Config) { c.WarmupLB = 100 },
		"appBroken":  func(c *Config) { c.App.Radius = 0 },
		"costBroken": func(c *Config) { c.Cost.FLOPS = 0 },
	}
	for name, mutate := range bad {
		c := testConfig(4, ULBA).Normalized()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Standard.String() != "standard" || ULBA.String() != "ulba" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestTriggers(t *testing.T) {
	var n Never
	n.Observe(5)
	if n.ShouldFire(0) {
		t.Error("Never fired")
	}
	n.Reset()

	p := &Periodic{K: 3}
	for i := 0; i < 2; i++ {
		p.Observe(1)
	}
	if p.ShouldFire(0) {
		t.Error("Periodic fired early")
	}
	p.Observe(1)
	if !p.ShouldFire(0) {
		t.Error("Periodic did not fire at K")
	}
	p.Reset()
	if p.ShouldFire(0) {
		t.Error("Periodic fired after reset")
	}
}

func TestDegradationTrigger(t *testing.T) {
	d := NewDegradation()
	// Constant iteration times: no degradation.
	for i := 0; i < 10; i++ {
		d.Observe(1.0)
	}
	if d.Value() != 0 {
		t.Errorf("flat series accumulated %v", d.Value())
	}
	if d.ShouldFire(0.5) {
		t.Error("fired without degradation")
	}
	// Growing times accumulate.
	d.Reset()
	for i := 0; i < 10; i++ {
		d.Observe(1.0 + 0.1*float64(i))
	}
	if d.Value() <= 0 {
		t.Errorf("growing series accumulated %v", d.Value())
	}
	if !d.ShouldFire(d.Value() - 1e-9) {
		t.Error("did not fire at threshold")
	}
	// Unknown threshold (no LB cost estimate yet) never fires.
	if d.ShouldFire(math.Inf(1)) || d.ShouldFire(math.NaN()) {
		t.Error("fired with unknown threshold")
	}
	// The median-of-3 smooths a single spike.
	d.Reset()
	d.Observe(1.0)
	d.Observe(5.0) // spike; median(1,5) = 3 -> contributes 2
	before := d.Value()
	d.Reset()
	d.Observe(1.0)
	d.Observe(1.0)
	d.Observe(5.0) // median(1,1,5) = 1 -> contributes 0
	if d.Value() >= before {
		t.Errorf("median smoothing ineffective: %v vs %v", d.Value(), before)
	}
}

func TestRunStandardCompletes(t *testing.T) {
	res, err := Run(testConfig(4, Standard))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("no time elapsed")
	}
	if len(res.IterTimes) != 60 || len(res.Usage) != 60 {
		t.Fatalf("trace lengths wrong: %d, %d", len(res.IterTimes), len(res.Usage))
	}
	for i, u := range res.Usage {
		if u <= 0 || u > 1 {
			t.Fatalf("usage[%d] = %v out of (0,1]", i, u)
		}
	}
	if res.LBCount() == 0 {
		t.Error("warmup LB should have fired at least once")
	}
	if res.LBIters[0] != 1 {
		t.Errorf("first LB at %d, want warmup at 1", res.LBIters[0])
	}
	if res.AvgLBCost <= 0 {
		t.Error("LB cost not measured")
	}
	if res.Eroded <= 0 {
		t.Error("no erosion happened")
	}
}

// The physics must be identical across policies (counter-based RNG): the
// same instance run under Standard, ULBA, or sequentially erodes the same
// cells.
func TestPhysicsIndependentOfPolicy(t *testing.T) {
	app := testApp(4)
	iters := 60

	seq := erosion.NewDomain(app, 0, app.Width())
	seqEroded := 0
	for i := 0; i < iters; i++ {
		seqEroded += seq.Step(i, nil, nil)
	}

	std, err := Run(testConfig(4, Standard))
	if err != nil {
		t.Fatal(err)
	}
	ul, err := Run(testConfig(4, ULBA))
	if err != nil {
		t.Fatal(err)
	}
	if std.Eroded != seqEroded || ul.Eroded != seqEroded {
		t.Errorf("eroded cells differ: seq %d, std %d, ulba %d", seqEroded, std.Eroded, ul.Eroded)
	}
	if std.FinalWorkload != seq.Workload() || ul.FinalWorkload != seq.Workload() {
		t.Errorf("final workloads differ: seq %v, std %v, ulba %v",
			seq.Workload(), std.FinalWorkload, ul.FinalWorkload)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(4, ULBA)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.LBCount() != b.LBCount() || a.Eroded != b.Eroded {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
	for i := range a.IterTimes {
		if a.IterTimes[i] != b.IterTimes[i] {
			t.Fatalf("iteration %d time differs", i)
		}
	}
}

// With alpha = 0 ULBA must behave exactly like the standard method: same
// decisions, same partitions, same times.
func TestULBAAlphaZeroEqualsStandard(t *testing.T) {
	cfgStd := testConfig(4, Standard)
	cfgZero := testConfig(4, ULBA)
	cfgZero.Alpha = 0
	std, err := Run(cfgStd)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(cfgZero)
	if err != nil {
		t.Fatal(err)
	}
	if std.TotalTime != zero.TotalTime {
		t.Errorf("alpha=0 ULBA total %v != standard %v", zero.TotalTime, std.TotalTime)
	}
	if std.LBCount() != zero.LBCount() {
		t.Errorf("LB counts differ: %d vs %d", std.LBCount(), zero.LBCount())
	}
}

func TestNeverTriggerStaticBaseline(t *testing.T) {
	cfg := testConfig(4, Standard)
	cfg.TriggerFactory = func() Trigger { return Never{} }
	cfg.WarmupLB = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() != 0 {
		t.Errorf("static baseline performed %d LB calls", res.LBCount())
	}
	// Without LB the final bounds are the initial even stripes.
	for i, b := range res.FinalBounds {
		if b != i*cfg.App.StripeWidth {
			t.Errorf("bounds moved without LB: %v", res.FinalBounds)
			break
		}
	}
}

func TestPeriodicTrigger(t *testing.T) {
	cfg := testConfig(4, Standard)
	cfg.TriggerFactory = func() Trigger { return &Periodic{K: 10} }
	cfg.WarmupLB = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 60 iterations, LB every 10 observed iterations: at 9, 19(=10 after
	// reset), ... roughly 6 calls.
	if res.LBCount() < 4 || res.LBCount() > 7 {
		t.Errorf("periodic LB count = %d (iters %v), want ~6", res.LBCount(), res.LBIters)
	}
}

func TestRCBPartitionerAblation(t *testing.T) {
	cfg := testConfig(4, Standard)
	cfg.UseRCB = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() == 0 || res.TotalTime <= 0 {
		t.Error("RCB run did not progress")
	}
}

// The headline behavioral claim on the application: with one strongly
// erodible rock, ULBA should not lose to the standard method, and it should
// need no more LB calls.
func TestULBACompetitiveWithStandard(t *testing.T) {
	std, err := Run(testConfig(8, Standard))
	if err != nil {
		t.Fatal(err)
	}
	ul, err := Run(testConfig(8, ULBA))
	if err != nil {
		t.Fatal(err)
	}
	if ul.TotalTime > std.TotalTime*1.05 {
		t.Errorf("ULBA total %v much worse than standard %v", ul.TotalTime, std.TotalTime)
	}
	if ul.LBCount() > std.LBCount() {
		t.Errorf("ULBA used more LB calls (%d) than standard (%d)", ul.LBCount(), std.LBCount())
	}
	t.Logf("standard: %.6fs with %d LB calls; ULBA: %.6fs with %d LB calls (gain %.1f%%)",
		std.TotalTime, std.LBCount(), ul.TotalTime, ul.LBCount(),
		100*(std.TotalTime-ul.TotalTime)/std.TotalTime)
}

func TestAdaptiveAlphaRuns(t *testing.T) {
	cfg := testConfig(4, ULBA)
	cfg.AdaptiveAlpha = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || len(res.Usage) != cfg.Iterations {
		t.Error("adaptive-alpha run did not complete properly")
	}
}

func TestWorkloadConservationAcrossMigration(t *testing.T) {
	// Total workload after the run must equal initial fluid + 4*eroded,
	// regardless of how many migrations happened.
	cfg := testConfig(4, ULBA)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := cfg.App
	ref := erosion.NewDomain(app, 0, app.Width())
	initialFluid := ref.Workload()
	want := initialFluid + 4*float64(res.Eroded)
	if res.FinalWorkload != want {
		t.Errorf("workload not conserved: %v, want %v", res.FinalWorkload, want)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Usage: []float64{0.5, 1}, LBIters: []int{3}}
	if r.LBCount() != 1 {
		t.Error("LBCount wrong")
	}
	if r.MeanUsage() != 0.75 {
		t.Error("MeanUsage wrong")
	}
}

func TestMenonTauTrigger(t *testing.T) {
	m := NewMenonTau()
	// Too few observations: never fires.
	m.Observe(1.0)
	m.Observe(1.1)
	if m.ShouldFire(0.001) {
		t.Error("fired with fewer than 3 observations")
	}
	// Linear growth with slope 0.1 s/iter: tau = sqrt(2*C/slope).
	// With C = 0.2, tau = 2: fires immediately once enough points exist.
	m.Reset()
	for i := 0; i < 5; i++ {
		m.Observe(1.0 + 0.1*float64(i))
	}
	if !m.ShouldFire(0.2) {
		t.Error("should fire past tau with strong growth")
	}
	// With a huge C, tau is far away: no fire.
	if m.ShouldFire(1e6) {
		t.Error("fired long before tau")
	}
	// Flat series: no growth, no fire.
	m.Reset()
	for i := 0; i < 10; i++ {
		m.Observe(1.0)
	}
	if m.ShouldFire(0.001) {
		t.Error("fired on a balanced application")
	}
	// Unknown threshold never fires.
	if m.ShouldFire(math.Inf(1)) || m.ShouldFire(math.NaN()) {
		t.Error("fired with unknown threshold")
	}
}

func TestMenonTriggerIntegration(t *testing.T) {
	cfg := testConfig(8, Standard)
	cfg.TriggerFactory = func() Trigger { return NewMenonTau() }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() == 0 {
		t.Error("Menon trigger never fired (warmup only expected at minimum)")
	}
	// Same physics as ever.
	ref, err := Run(testConfig(8, Standard))
	if err != nil {
		t.Fatal(err)
	}
	if res.Eroded != ref.Eroded {
		t.Errorf("trigger choice changed the physics: %d vs %d", res.Eroded, ref.Eroded)
	}
}

func TestTriggerKindsAllRun(t *testing.T) {
	factories := map[string]func() Trigger{
		"default":     nil,
		"degradation": func() Trigger { return NewDegradation() },
		"periodic":    func() Trigger { return &Periodic{K: 15} },
		"never":       func() Trigger { return Never{} },
		"menon":       func() Trigger { return NewMenonTau() },
	}
	for name, factory := range factories {
		cfg := testConfig(4, Standard)
		cfg.TriggerFactory = factory
		if name == "never" {
			cfg.WarmupLB = -1
		}
		if _, err := Run(cfg); err != nil {
			t.Errorf("trigger %s failed: %v", name, err)
		}
	}
}

func TestOSNoiseInjection(t *testing.T) {
	base := testConfig(4, ULBA)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	noisy := base
	// Noise comparable to an iteration's compute: heavy interference.
	noisy.OSNoise = clean.TotalTime / float64(base.Iterations)
	res, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= clean.TotalTime {
		t.Errorf("noise should cost time: %v vs %v", res.TotalTime, clean.TotalTime)
	}
	if res.MeanUsage() >= clean.MeanUsage() {
		t.Errorf("noise should lower usage: %v vs %v", res.MeanUsage(), clean.MeanUsage())
	}
	// Physics untouched by timing noise.
	if res.Eroded != clean.Eroded {
		t.Errorf("noise changed the physics: %d vs %d", res.Eroded, clean.Eroded)
	}
	// Still deterministic.
	res2, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != res2.TotalTime {
		t.Error("noisy runs are not reproducible")
	}
}

func TestOSNoiseValidation(t *testing.T) {
	cfg := testConfig(4, Standard)
	cfg.OSNoise = -1
	if err := cfg.Normalized().Validate(); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestFixedScheduleTrigger(t *testing.T) {
	f := &FixedSchedule{Iters: []int{3, 7}}
	fired := []int{}
	for i := 0; i < 10; i++ {
		f.Observe(0)
		if f.ShouldFire(0.5) {
			fired = append(fired, i)
			f.Reset()
		}
	}
	// Entry k fires at the end of iteration k-1: the balancer runs before
	// iteration k executes, matching the schedule convention.
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 6 {
		t.Errorf("fired at %v, want [2 6]", fired)
	}
}

func TestFixedScheduleSkipsPastEntries(t *testing.T) {
	// Adjacent plan entries covered by one step are collapsed by Reset.
	f := &FixedSchedule{Iters: []int{2, 3}}
	f.Observe(0)
	f.Observe(0)
	f.Observe(0) // seen = 3: both entries reached
	if !f.ShouldFire(0) {
		t.Fatal("should fire at entry 2")
	}
	f.Reset()
	if f.ShouldFire(0) {
		t.Error("entry 3 already covered, must not fire again")
	}
}

func TestFixedScheduleRunMatchesPlan(t *testing.T) {
	cfg := testConfig(4, ULBA)
	plan := []int{10, 25, 40}
	cfg.TriggerFactory = func() Trigger { return &FixedSchedule{Iters: plan} }
	cfg.WarmupLB = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() != len(plan) {
		t.Fatalf("ran %d LB steps, plan has %d (at %v)", res.LBCount(), len(plan), res.LBIters)
	}
	for i, it := range res.LBIters {
		if it != plan[i]-1 {
			t.Errorf("LB step %d at iteration %d, want %d (before planned iteration %d)",
				i, it, plan[i]-1, plan[i])
		}
	}
}
