// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations of the design choices called out in
// DESIGN.md. Custom metrics attach the quantities the paper reports (gain
// percentages, LB call counts, usage) to the benchmark output, so
// `go test -bench . -benchmem` regenerates the evaluation at bench scale.
package ulba_test

import (
	"fmt"
	"testing"

	"ulba/internal/erosion"
	"ulba/internal/experiments"
	"ulba/internal/instance"
	"ulba/internal/lb"
	"ulba/internal/simulate"
	"ulba/internal/stats"
)

// BenchmarkTable1_ModelEvaluation measures one full evaluation of the
// analytic model (Table I quantities: a^, m^, sigma-, sigma+, tau and the
// two total times) on a Table II instance.
func BenchmarkTable1_ModelEvaluation(b *testing.B) {
	p := instance.NewGenerator(1).Sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = p.SigmaMinus(0)
		_, _ = p.SigmaPlus(0)
		_, _ = p.MenonTau()
		_ = simulate.StandardTime(p)
		_ = simulate.ULBATimeAt(p, p.Alpha)
	}
}

// BenchmarkTable2_InstanceSampling measures the Table II generator.
func BenchmarkTable2_InstanceSampling(b *testing.B) {
	g := instance.NewGenerator(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := g.Sample()
		if p.P == 0 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkFig2_UpperBoundVsAnneal runs a reduced Fig. 2 experiment per
// iteration: sigma+ schedules versus simulated annealing on Table II
// instances. The mean gain (paper: -0.83%) is attached as a metric.
func BenchmarkFig2_UpperBoundVsAnneal(b *testing.B) {
	var last simulate.Fig2Result
	for i := 0; i < b.N; i++ {
		last = simulate.RunFig2(simulate.Fig2Config{
			Instances:   5,
			AnnealSteps: 4000,
			Seed:        uint64(i),
		})
	}
	b.ReportMetric(last.Mean*100, "meanGain%")
	b.ReportMetric(last.Worst*100, "worstGain%")
}

// BenchmarkFig3_GainVsOverloadingPct runs a reduced Fig. 3 bucket pair per
// iteration and reports the median gains at 1% and 20% overloading PEs
// (paper: large gains at 1%, small at 20%).
func BenchmarkFig3_GainVsOverloadingPct(b *testing.B) {
	var buckets []simulate.Fig3Bucket
	for i := 0; i < b.N; i++ {
		buckets = simulate.RunFig3(simulate.Fig3Config{
			Buckets:            []float64{0.01, 0.20},
			InstancesPerBucket: 20,
			AlphaGridSize:      21,
			Seed:               uint64(i),
		})
	}
	b.ReportMetric(buckets[0].Gains.Median*100, "gain@1%%")
	b.ReportMetric(buckets[1].Gains.Median*100, "gain@20%%")
	b.ReportMetric(buckets[0].MeanBestAlpha, "alpha@1%")
}

// runErosion runs cfg on its instance's erosion trace, built for this run.
func runErosion(tb testing.TB, cfg lb.Config) lb.Result {
	tb.Helper()
	tr, err := erosion.NewTrace(cfg.App, cfg.Iterations)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := lb.Run(cfg, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkFig4a_ErosionPerformance runs the erosion application once per
// iteration for every cell of the Fig. 4a grid (method x PEs x strong
// rocks) at bench scale. The LB call count is attached as a metric.
func BenchmarkFig4a_ErosionPerformance(b *testing.B) {
	s := experiments.BenchScale()
	for _, method := range []lb.Method{lb.Standard, lb.ULBA} {
		for _, rocks := range []int{1, 2, 3} {
			for _, p := range []int{16, 32} {
				name := fmt.Sprintf("%s/rocks=%d/P=%d", method, rocks, p)
				b.Run(name, func(b *testing.B) {
					var res lb.Result
					for i := 0; i < b.N; i++ {
						res = runErosion(b, s.LBConfig(p, rocks, 1, method, 0.4))
					}
					b.ReportMetric(float64(res.LBCount()), "LBcalls")
					b.ReportMetric(res.MeanUsage()*100, "usage%")
					b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
				})
			}
		}
	}
}

// BenchmarkFig4b_UsageTrace runs the standard/ULBA usage-trace pair of
// Fig. 4b and reports the call reduction (paper: 62.5%).
func BenchmarkFig4b_UsageTrace(b *testing.B) {
	s := experiments.BenchScale()
	var r experiments.Fig4bResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig4b(s, 16, 0.4)
	}
	b.ReportMetric(r.CallReduction()*100, "callsAvoided%")
	b.ReportMetric(r.Std.MeanUsage()*100, "stdUsage%")
	b.ReportMetric(r.ULBA.MeanUsage()*100, "ulbaUsage%")
}

// BenchmarkFig5_AlphaSweep runs ULBA at each alpha of the Fig. 5 sweep.
func BenchmarkFig5_AlphaSweep(b *testing.B) {
	s := experiments.BenchScale()
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				res = runErosion(b, s.LBConfig(16, 1, 1, lb.ULBA, alpha))
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
			b.ReportMetric(float64(res.LBCount()), "LBcalls")
		})
	}
}

// Ablation benches: design choices DESIGN.md calls out.

// BenchmarkAblation_Trigger compares the adaptive degradation trigger
// against periodic and static baselines under the standard method.
func BenchmarkAblation_Trigger(b *testing.B) {
	s := experiments.BenchScale()
	cases := []struct {
		name string
		mut  func(*lb.Config)
	}{
		{"degradation", func(c *lb.Config) {}},
		{"menon-tau", func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return lb.NewMenonTau() }
		}},
		{"periodic=10", func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return &lb.Periodic{K: 10} }
			c.WarmupLB = -1
		}},
		{"never", func(c *lb.Config) {
			c.TriggerFactory = func() lb.Trigger { return lb.Never{} }
			c.WarmupLB = -1
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, lb.Standard, 0)
				tc.mut(&cfg)
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
			b.ReportMetric(float64(res.LBCount()), "LBcalls")
		})
	}
}

// BenchmarkAblation_Partitioner compares the stripe prefix-sum partitioner
// with 1D recursive bisection (standard method).
func BenchmarkAblation_Partitioner(b *testing.B) {
	s := experiments.BenchScale()
	for _, useRCB := range []bool{false, true} {
		name := "stripes"
		if useRCB {
			name = "rcb"
		}
		b.Run(name, func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, lb.Standard, 0)
				cfg.UseRCB = useRCB
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
		})
	}
}

// BenchmarkAblation_OverheadTerm toggles the Eq. 11 overhead term in the
// ULBA trigger threshold (Section III-C versus plain Algorithm 1).
func BenchmarkAblation_OverheadTerm(b *testing.B) {
	s := experiments.BenchScale()
	for _, include := range []bool{true, false} {
		name := "with-overhead"
		if !include {
			name = "without-overhead"
		}
		b.Run(name, func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, lb.ULBA, 0.4)
				cfg.IncludeOverhead = include
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
			b.ReportMetric(float64(res.LBCount()), "LBcalls")
		})
	}
}

// BenchmarkAblation_AdaptiveAlpha compares fixed alpha with the
// adaptive-alpha extension (the paper's future work).
func BenchmarkAblation_AdaptiveAlpha(b *testing.B) {
	s := experiments.BenchScale()
	for _, adaptive := range []bool{false, true} {
		name := "fixed=0.4"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, lb.ULBA, 0.4)
				cfg.AdaptiveAlpha = adaptive
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
		})
	}
}

// BenchmarkAblation_ZThreshold sweeps the overload-detection threshold.
func BenchmarkAblation_ZThreshold(b *testing.B) {
	s := experiments.BenchScale()
	for _, z := range []float64{2.0, 3.0, 4.0} {
		b.Run(fmt.Sprintf("z=%.1f", z), func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, lb.ULBA, 0.4)
				cfg.ZThreshold = z
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
			b.ReportMetric(float64(res.LBCount()), "LBcalls")
		})
	}
}

// BenchmarkAblation_OSNoise measures robustness to injected system noise
// (one of the paper's cited sources of imbalance): both methods under
// per-iteration jitter comparable to 20% of an iteration.
func BenchmarkAblation_OSNoise(b *testing.B) {
	s := experiments.BenchScale()
	for _, method := range []lb.Method{lb.Standard, lb.ULBA} {
		b.Run(method.String(), func(b *testing.B) {
			var res lb.Result
			for i := 0; i < b.N; i++ {
				cfg := s.LBConfig(16, 1, 1, method, 0.4)
				cfg.OSNoise = 2e-4
				res = runErosion(b, cfg)
			}
			b.ReportMetric(res.TotalTime*1e3, "virtual_ms")
			b.ReportMetric(res.MeanUsage()*100, "usage%")
		})
	}
}

// BenchmarkAnnealer measures the simulated-annealing schedule search alone.
func BenchmarkAnnealer(b *testing.B) {
	p := instance.NewGenerator(3).Sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = simulate.AnnealSchedule(p, 2000, uint64(i))
	}
}

// BenchmarkScheduleEvaluation measures one Eq. 4 total-time evaluation, the
// inner loop of every synthetic experiment.
func BenchmarkScheduleEvaluation(b *testing.B) {
	p := instance.NewGenerator(4).Sample()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = simulate.ULBATimeAt(p, 0.5)
	}
	_ = sink
}

// BenchmarkBestAlphaGrid measures the 100-alpha scan used per instance in
// the Fig. 3 experiment.
func BenchmarkBestAlphaGrid(b *testing.B) {
	p := instance.NewGenerator(5).Sample()
	grid := simulate.AlphaGrid(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = simulate.BestAlpha(p, grid)
	}
}

// BenchmarkGainStats measures the five-number summarization of a Fig. 3
// bucket.
func BenchmarkGainStats(b *testing.B) {
	rng := stats.NewRNG(6)
	gains := make([]float64, 1000)
	for i := range gains {
		gains[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = stats.Summarize(gains)
	}
}
