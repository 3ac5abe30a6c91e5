package experiments

import (
	"slices"
	"strings"
	"testing"

	"ulba/internal/erosion"
	"ulba/internal/lb"
	"ulba/internal/simulate"
)

func tinyScale() Scale {
	return Scale{StripeWidth: 64, Height: 120, Radius: 16, Iterations: 40, Seeds: 1}
}

func TestScalesValidate(t *testing.T) {
	for name, s := range map[string]Scale{
		"bench":   BenchScale(),
		"default": DefaultScale(),
		"paper":   PaperScale(),
	} {
		app := s.App(32, 1, 1)
		if err := app.Validate(); err != nil {
			t.Errorf("%s scale app invalid: %v", name, err)
		}
		cfg := s.LBConfig(32, 1, 1, 0, 0.4).Normalized()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s scale lb config invalid: %v", name, err)
		}
	}
}

func TestRunFig4aShape(t *testing.T) {
	s := tinyScale()
	cells := RunFig4a(s, []int{16}, []int{1, 2}, 0.4)
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.StdTime <= 0 || c.ULBATime <= 0 {
			t.Errorf("cell %+v has non-positive time", c)
		}
		if c.StdCalls < 1 {
			t.Errorf("cell %+v: standard made no LB calls", c)
		}
		if c.StdUsage <= 0 || c.StdUsage > 1 || c.ULBAUse <= 0 || c.ULBAUse > 1 {
			t.Errorf("cell %+v: usage out of range", c)
		}
	}
	out := RenderFig4a(cells)
	if !strings.Contains(out, "gain %") || !strings.Contains(out, "16") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestRunFig4b(t *testing.T) {
	s := tinyScale()
	r := RunFig4b(s, 16, 0.4)
	if len(r.Std.Usage) != s.Iterations || len(r.ULBA.Usage) != s.Iterations {
		t.Fatal("usage traces wrong length")
	}
	if cr := r.CallReduction(); cr < -1 || cr > 1 {
		t.Errorf("call reduction out of range: %v", cr)
	}
	out := RenderFig4b(r, 60)
	if !strings.Contains(out, "standard") || !strings.Contains(out, "ULBA") {
		t.Errorf("render missing labels:\n%s", out)
	}
	if !strings.Contains(out, "usage |") {
		t.Errorf("render missing sparkline:\n%s", out)
	}
}

func TestRunFig5(t *testing.T) {
	s := tinyScale()
	points := RunFig5(s, []int{16}, []float64{0.2, 0.4})
	if len(points) != 2 {
		t.Fatalf("expected 2 points, got %d", len(points))
	}
	for _, p := range points {
		if p.Time <= 0 {
			t.Errorf("point %+v non-positive time", p)
		}
	}
	out := RenderFig5(points)
	if !strings.Contains(out, "0.20") || !strings.Contains(out, "0.40") {
		t.Errorf("render missing alphas:\n%s", out)
	}
}

func TestRenderFig2(t *testing.T) {
	res := simulate.RunFig2(simulate.Fig2Config{Instances: 8, AnnealSteps: 1500, Seed: 5})
	out := RenderFig2(res)
	if !strings.Contains(out, "best") || !strings.Contains(out, "paper") {
		t.Errorf("render missing summary:\n%s", out)
	}
}

func TestRenderFig3(t *testing.T) {
	buckets := simulate.RunFig3(simulate.Fig3Config{
		Buckets: []float64{0.05}, InstancesPerBucket: 10, AlphaGridSize: 5, Seed: 2,
	})
	out := RenderFig3(buckets)
	if !strings.Contains(out, "5.0") || !strings.Contains(out, "median %") {
		t.Errorf("render missing bucket:\n%s", out)
	}
}

func TestRenderTables(t *testing.T) {
	t1 := RenderTable1()
	if !strings.Contains(t1, "alpha") || !strings.Contains(t1, "omega") {
		t.Errorf("Table I incomplete:\n%s", t1)
	}
	t2 := RenderTable2()
	if !strings.Contains(t2, "Uniform") || !strings.Contains(t2, "2048") {
		t.Errorf("Table II incomplete:\n%s", t2)
	}
}

// Variants sharing each seed's trace get the medians that separate runs,
// each on its own trace, give.
func TestMedianRunDeterministic(t *testing.T) {
	s := tinyScale()
	s.Seeds = 3
	vs := []variant{{lb.Standard, 0.4}, {lb.ULBA, 0.4}}
	got := s.medianRuns(16, 1, vs...)
	if len(got) != len(vs) {
		t.Fatalf("%d medians for %d variants", len(got), len(vs))
	}
	for i, v := range vs {
		var totals []float64
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := s.LBConfig(16, 1, seed, v.method, v.alpha)
			tr, err := erosion.NewTrace(cfg.App, cfg.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			res, err := lb.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			totals = append(totals, res.TotalTime)
		}
		slices.Sort(totals)
		if got[i].TotalTime != totals[1] {
			t.Errorf("%s: median total %v, separate runs give %v", v.method, got[i].TotalTime, totals)
		}
	}
}
