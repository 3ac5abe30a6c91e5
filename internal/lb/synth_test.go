package lb

import (
	"reflect"
	"testing"

	"ulba/internal/mpisim"
	"ulba/internal/partition"
)

// rampWeight is a simple drifting weight function: item j starts at 1 and
// the first quarter of the items gain 0.1 per iteration.
func rampWeight(items int) func(int, int) float64 {
	return func(item, iter int) float64 {
		w := 1.0
		if item < items/4 {
			w += 0.1 * float64(iter)
		}
		return w
	}
}

func synthCfg(p, items, iters int) SynthConfig {
	return SynthConfig{
		P:          p,
		Items:      items,
		Iterations: iters,
		Weight:     rampWeight(items),
		Cost:       mpisim.DefaultCostModel(),
	}
}

func TestSynthValidate(t *testing.T) {
	base := synthCfg(4, 64, 50).Normalized()
	cases := []struct {
		name   string
		mutate func(*SynthConfig)
	}{
		{"non-positive P", func(c *SynthConfig) { c.P = 0 }},
		{"fewer items than PEs", func(c *SynthConfig) { c.Items = 3 }},
		{"non-positive iterations", func(c *SynthConfig) { c.Iterations = 0 }},
		{"nil weight", func(c *SynthConfig) { c.Weight = nil }},
		{"bad cost model", func(c *SynthConfig) { c.Cost.FLOPS = 0 }},
		{"negative flop per unit", func(c *SynthConfig) { c.FlopPerUnit = -1 }},
		{"warmup beyond run", func(c *SynthConfig) { c.WarmupLB = 50 }},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if _, err := RunSynth(cfg); err == nil {
			t.Errorf("%s: RunSynth accepted invalid config", tc.name)
		}
	}
}

func TestSynthNormalizedDefaults(t *testing.T) {
	c := SynthConfig{}.Normalized()
	if c.FlopPerUnit != 1e6 || c.WarmupLB != 1 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestSynthDeterministicReplay(t *testing.T) {
	cfg := synthCfg(4, 64, 60)
	a, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}

func TestSynthResultShape(t *testing.T) {
	cfg := synthCfg(4, 64, 60)
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 60 || len(res.Usage) != 60 {
		t.Fatalf("timeline lengths: %d iter times, %d usage", len(res.IterTimes), len(res.Usage))
	}
	if res.TotalTime <= 0 {
		t.Fatalf("TotalTime = %g", res.TotalTime)
	}
	sum := 0.0
	for i, it := range res.IterTimes {
		if it <= 0 {
			t.Fatalf("iteration %d time %g not positive", i, it)
		}
		sum += it
	}
	for _, c := range res.LBCosts {
		sum += c
	}
	// The measured segments cover the run up to the last max-clock
	// allreduce; the total additionally includes the trailing collective
	// overhead (microseconds of latency), so it is slightly larger.
	if res.TotalTime < sum || res.TotalTime-sum > 1e-3 {
		t.Fatalf("iteration times + LB costs = %g, total = %g", sum, res.TotalTime)
	}
	for i, u := range res.Usage {
		if u < 0 || u > 1 {
			t.Fatalf("usage[%d] = %g out of [0,1]", i, u)
		}
	}
	if err := partition.Validate(res.FinalBounds, cfg.Items); err != nil {
		t.Fatalf("final bounds invalid: %v", err)
	}
	if len(res.ComputeTime) != cfg.P {
		t.Fatalf("ComputeTime has %d entries, want %d", len(res.ComputeTime), cfg.P)
	}
	if got := res.LBCount(); got != len(res.LBIters) {
		t.Fatalf("LBCount = %d, len(LBIters) = %d", got, len(res.LBIters))
	}
	if res.MeanUsage() <= 0 || res.MeanUsage() > 1 {
		t.Fatalf("MeanUsage = %g", res.MeanUsage())
	}
	if res.AvgLBCost <= 0 {
		t.Fatalf("AvgLBCost = %g with %d LB calls", res.AvgLBCost, res.LBCount())
	}
}

func TestSynthNeverTriggerNoLB(t *testing.T) {
	cfg := synthCfg(4, 64, 60)
	cfg.TriggerFactory = func() Trigger { return Never{} }
	cfg.WarmupLB = -1
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() != 0 {
		t.Fatalf("never trigger balanced %d times", res.LBCount())
	}
	if res.AvgLBCost != 0 {
		t.Fatalf("AvgLBCost = %g without LB calls", res.AvgLBCost)
	}
	// Without balancing the initial even-count split never changes.
	want := make([]int, cfg.P+1)
	for i := range want {
		want[i] = i * cfg.Items / cfg.P
	}
	if !reflect.DeepEqual(res.FinalBounds, want) {
		t.Fatalf("bounds moved without LB: %v", res.FinalBounds)
	}
}

func TestSynthPeriodicTriggerFiresOnSchedule(t *testing.T) {
	cfg := synthCfg(4, 64, 40)
	cfg.TriggerFactory = func() Trigger { return &Periodic{K: 10} }
	cfg.WarmupLB = -1
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The periodic trigger fires after every 10 observed iterations
	// (iteration indices 9, 19, 29, 39).
	want := []int{9, 19, 29, 39}
	if !reflect.DeepEqual(res.LBIters, want) {
		t.Fatalf("periodic LB iterations = %v, want %v", res.LBIters, want)
	}
}

func TestSynthWarmupSeedsAdaptiveTrigger(t *testing.T) {
	cfg := synthCfg(4, 64, 80)
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBCount() == 0 || res.LBIters[0] != 1 {
		t.Fatalf("expected warmup LB at iteration 1, got %v", res.LBIters)
	}
	// The drifting ramp must keep triggering after the warmup call.
	if res.LBCount() < 2 {
		t.Fatalf("degradation trigger never fired after warmup: %v", res.LBIters)
	}
}

func TestSynthBalancingBeatsNoLBOnDrift(t *testing.T) {
	cfg := synthCfg(8, 128, 100)
	balanced, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noLB := cfg
	noLB.TriggerFactory = func() Trigger { return Never{} }
	noLB.WarmupLB = -1
	static, err := RunSynth(noLB)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.TotalTime >= static.TotalTime {
		t.Fatalf("balancing (%.4fs) did not beat no-LB (%.4fs) on a drifting load",
			balanced.TotalTime, static.TotalTime)
	}
	perfect := PerfectTime(cfg)
	if perfect <= 0 || perfect > balanced.TotalTime || perfect > static.TotalTime {
		t.Fatalf("perfect bound %.4fs not below measured %.4fs / %.4fs",
			perfect, balanced.TotalTime, static.TotalTime)
	}
}

func TestSynthSingleRank(t *testing.T) {
	cfg := synthCfg(1, 16, 30)
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatalf("TotalTime = %g", res.TotalTime)
	}
	if !reflect.DeepEqual(res.FinalBounds, []int{0, 16}) {
		t.Fatalf("single-rank bounds = %v", res.FinalBounds)
	}
}

func TestSynthUnevenItemCounts(t *testing.T) {
	// 67 items over 4 PEs: the initial split and every re-partition must
	// stay a valid cover with at least one item per PE.
	cfg := synthCfg(4, 67, 50)
	res, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(res.FinalBounds, 67); err != nil {
		t.Fatalf("final bounds invalid: %v", err)
	}
	for r := 0; r < 4; r++ {
		if res.FinalBounds[r+1]-res.FinalBounds[r] < 1 {
			t.Fatalf("rank %d left without items: %v", r, res.FinalBounds)
		}
	}
}
