// Package experiments defines the reference configurations and drivers that
// regenerate every figure of the paper's evaluation (Section IV): the
// synthetic model studies (Fig. 2 and Fig. 3, via internal/simulate) and the
// erosion-application studies (Fig. 4a, Fig. 4b, Fig. 5, via internal/lb).
//
// The erosion configurations are scaled-down but shape-preserving versions
// of the paper's testbed (see DESIGN.md): the disc-to-stripe geometry ratio,
// the erosion probabilities, alpha, and the z-score threshold match the
// paper; the domain is smaller and the virtual cost model replaces the
// Baobab cluster. Every driver takes the scale as a parameter so the paper's
// full dimensions remain reachable.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ulba/internal/erosion"
	"ulba/internal/instance"
	"ulba/internal/lb"
	"ulba/internal/mpisim"
	"ulba/internal/simulate"
	"ulba/internal/stats"
	"ulba/internal/trace"
)

// Scale selects the size of the erosion experiments.
type Scale struct {
	StripeWidth int
	Height      int
	Radius      int
	Iterations  int
	Seeds       int // number of repetitions; the median is reported (paper: 5)

	// TriggerFactory, when non-nil, replaces the default degradation
	// trigger in every configuration this scale assembles; it is how the
	// CLIs select a trigger by registry name for the Fig. 4 experiments.
	TriggerFactory func() lb.Trigger

	// WarmupLB overrides the forced first LB call (0 keeps the runner's
	// default of iteration 1; negative disables it, e.g. for the static
	// never-trigger baseline).
	WarmupLB int
}

// BenchScale is small enough for go test -bench: one run takes tens of
// milliseconds of real time.
func BenchScale() Scale {
	return Scale{StripeWidth: 96, Height: 200, Radius: 24, Iterations: 60, Seeds: 1}
}

// DefaultScale reproduces the shapes in a few seconds per cell of the
// experiment grid, with the paper's five-run medians.
func DefaultScale() Scale {
	return Scale{StripeWidth: 192, Height: 400, Radius: 48, Iterations: 120, Seeds: 5}
}

// PaperScale is the paper's geometry (1000x1000 stripes, radius 250,
// 450 iterations, 5 runs). Expect long runtimes.
func PaperScale() Scale {
	return Scale{StripeWidth: 1000, Height: 1000, Radius: 250, Iterations: 450, Seeds: 5}
}

// App builds the erosion instance for P PEs with the given number of
// strongly erodible rocks at this scale.
func (s Scale) App(p, rocks int, seed uint64) erosion.Config {
	return erosion.Config{
		P:           p,
		StripeWidth: s.StripeWidth,
		Height:      s.Height,
		Radius:      s.Radius,
		StrongRocks: rocks,
		ProbStrong:  0.4,
		ProbWeak:    0.02,
		Seed:        seed,
		FlopPerUnit: 100,
		CellBytes:   8,
	}
}

// Cost returns the reference cluster cost model: 2 microsecond latency,
// 100 MB/s effective per-byte cost, 1 GFLOPS PEs (the paper's omega).
func Cost() mpisim.CostModel {
	return mpisim.CostModel{Latency: 2e-6, ByteTime: 1e-8, FLOPS: 1e9}
}

// LBConfig assembles the runner configuration for one method at this scale.
func (s Scale) LBConfig(p, rocks int, seed uint64, method lb.Method, alpha float64) lb.Config {
	return lb.Config{
		App:             s.App(p, rocks, seed),
		Iterations:      s.Iterations,
		Cost:            Cost(),
		Method:          method,
		Alpha:           alpha,
		ZThreshold:      3.0,
		IncludeOverhead: true,
		TriggerFactory:  s.TriggerFactory,
		WarmupLB:        s.WarmupLB,
	}
}

// variant is one method and alpha run on every seed of a figure cell.
type variant struct {
	method lb.Method
	alpha  float64
}

// medianRuns runs every variant on each seed's instance of P PEs with the
// given number of strongly erodible rocks, and returns per variant the run
// with the median total time. Each instance's erosion trace is built once
// and shared by all the variants run on it.
func (s Scale) medianRuns(p, rocks int, vs ...variant) []lb.Result {
	runs := make([][]lb.Result, len(vs))
	for seed := uint64(1); seed <= uint64(s.Seeds); seed++ {
		tr, err := erosion.NewTrace(s.App(p, rocks, seed), s.Iterations)
		if err != nil {
			panic(fmt.Sprintf("experiments: run failed: %v", err))
		}
		for i, v := range vs {
			res, err := lb.Run(s.LBConfig(p, rocks, seed, v.method, v.alpha), tr)
			if err != nil {
				panic(fmt.Sprintf("experiments: run failed: %v", err))
			}
			runs[i] = append(runs[i], res)
		}
	}
	medians := make([]lb.Result, len(vs))
	for i, rs := range runs {
		sort.Slice(rs, func(a, b int) bool { return rs[a].TotalTime < rs[b].TotalTime })
		medians[i] = rs[len(rs)/2]
	}
	return medians
}

// Fig4aCell is one bar pair of Fig. 4a: standard versus ULBA for a given
// PE count and number of strongly erodible rocks.
type Fig4aCell struct {
	P, Rocks           int
	StdTime, ULBATime  float64 // median total times, seconds
	StdCalls, ULBACall int     // LB calls of the median runs
	StdUsage, ULBAUse  float64 // mean PE usage of the median runs
	Gain               float64 // (std-ulba)/std
}

// RunFig4a reproduces the Fig. 4a grid: total time of the standard method
// (Zhai trigger) versus ULBA (alpha = 0.4) over PE counts and 1..3 strongly
// erodible rocks, median over seeds.
func RunFig4a(s Scale, ps []int, rocks []int, alpha float64) []Fig4aCell {
	var out []Fig4aCell
	for _, r := range rocks {
		for _, p := range ps {
			m := s.medianRuns(p, r, variant{lb.Standard, alpha}, variant{lb.ULBA, alpha})
			std, ul := m[0], m[1]
			out = append(out, Fig4aCell{
				P: p, Rocks: r,
				StdTime: std.TotalTime, ULBATime: ul.TotalTime,
				StdCalls: std.LBCount(), ULBACall: ul.LBCount(),
				StdUsage: std.MeanUsage(), ULBAUse: ul.MeanUsage(),
				Gain: (std.TotalTime - ul.TotalTime) / std.TotalTime,
			})
		}
	}
	return out
}

// RenderFig4a renders the grid as a table comparable to the paper's bars.
func RenderFig4a(cells []Fig4aCell) string {
	tb := trace.NewTable("rocks", "P", "std [s]", "ulba [s]", "gain %", "std LB", "ulba LB", "std usage", "ulba usage")
	for _, c := range cells {
		tb.AddStringRow(
			fmt.Sprintf("%d", c.Rocks),
			fmt.Sprintf("%d", c.P),
			fmt.Sprintf("%.4f", c.StdTime),
			fmt.Sprintf("%.4f", c.ULBATime),
			fmt.Sprintf("%+.2f", c.Gain*100),
			fmt.Sprintf("%d", c.StdCalls),
			fmt.Sprintf("%d", c.ULBACall),
			fmt.Sprintf("%.3f", c.StdUsage),
			fmt.Sprintf("%.3f", c.ULBAUse),
		)
	}
	return tb.String()
}

// Fig4bResult carries the usage traces of one standard/ULBA pair.
type Fig4bResult struct {
	P     int
	Std   lb.Result
	ULBA  lb.Result
	Alpha float64
}

// CallReduction returns the fraction of LB calls ULBA avoided relative to
// the standard method (the paper reports 62.5% on its 32-PE case).
func (r Fig4bResult) CallReduction() float64 {
	if r.Std.LBCount() == 0 {
		return 0
	}
	return 1 - float64(r.ULBA.LBCount())/float64(r.Std.LBCount())
}

// RunFig4b reproduces the Fig. 4b experiment: the average-PE-usage traces of
// both methods on one instance (the paper: 32 PEs, 1 strongly erodible
// rock).
func RunFig4b(s Scale, p int, alpha float64) Fig4bResult {
	m := s.medianRuns(p, 1, variant{lb.Standard, alpha}, variant{lb.ULBA, alpha})
	return Fig4bResult{P: p, Std: m[0], ULBA: m[1], Alpha: alpha}
}

// RenderFig4b renders the two usage traces as sparkline plots with LB
// markers plus the summary line.
func RenderFig4b(r Fig4bResult, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Average PE usage, %d PEs, 1 strongly erodible rock, alpha=%.2f\n", r.P, r.Alpha)
	b.WriteString(trace.UsagePlot(
		fmt.Sprintf("standard: mean usage %.3f, %d LB calls", r.Std.MeanUsage(), r.Std.LBCount()),
		r.Std.Usage, r.Std.LBIters, width))
	b.WriteString(trace.UsagePlot(
		fmt.Sprintf("ULBA:     mean usage %.3f, %d LB calls", r.ULBA.MeanUsage(), r.ULBA.LBCount()),
		r.ULBA.Usage, r.ULBA.LBIters, width))
	fmt.Fprintf(&b, "LB calls avoided by ULBA: %.1f%% (paper: 62.5%%)\n", r.CallReduction()*100)
	return b.String()
}

// Fig5Point is one point of the alpha-tuning study.
type Fig5Point struct {
	P     int
	Alpha float64
	Time  float64 // median total time, seconds
	Calls int
	Usage float64
}

// RunFig5 reproduces Fig. 5: ULBA total time versus alpha with one strongly
// erodible rock, for each PE count.
func RunFig5(s Scale, ps []int, alphas []float64) []Fig5Point {
	vs := make([]variant, len(alphas))
	for i, a := range alphas {
		vs[i] = variant{lb.ULBA, a}
	}
	var out []Fig5Point
	for _, p := range ps {
		for i, res := range s.medianRuns(p, 1, vs...) {
			out = append(out, Fig5Point{P: p, Alpha: alphas[i], Time: res.TotalTime,
				Calls: res.LBCount(), Usage: res.MeanUsage()})
		}
	}
	return out
}

// RenderFig5 renders the sweep as a table grouped by P.
func RenderFig5(points []Fig5Point) string {
	tb := trace.NewTable("P", "alpha", "time [s]", "LB calls", "usage")
	for _, pt := range points {
		tb.AddStringRow(
			fmt.Sprintf("%d", pt.P),
			fmt.Sprintf("%.2f", pt.Alpha),
			fmt.Sprintf("%.4f", pt.Time),
			fmt.Sprintf("%d", pt.Calls),
			fmt.Sprintf("%.3f", pt.Usage),
		)
	}
	return tb.String()
}

// RenderFig2 renders the sigma+ versus simulated-annealing comparison as the
// paper's histogram plus summary statistics.
func RenderFig2(res simulate.Fig2Result) string {
	var b strings.Builder
	lo, hi := res.Worst, res.Best
	if hi <= lo {
		hi = lo + 1e-6
	}
	h := stats.NewHistogram(lo, hi, 16)
	h.AddAll(res.Gains)
	fmt.Fprintf(&b, "Gain of the sigma+ schedule versus the heuristic search (%d instances)\n", len(res.Gains))
	b.WriteString(h.Render(40))
	fmt.Fprintf(&b, "best %+0.2f%%  worst %+0.2f%%  mean %+0.2f%%  (paper: +1.57%% / -5.58%% / -0.83%%)\n",
		res.Best*100, res.Worst*100, res.Mean*100)
	fmt.Fprintf(&b, "sigma+ beat the heuristic on %.1f%% of instances\n", res.BetterFrac*100)
	return b.String()
}

// RenderFig3 renders the gain-versus-overloading-percentage box plots as a
// table (one row per box).
func RenderFig3(buckets []simulate.Fig3Bucket) string {
	tb := trace.NewTable("overloading %", "min %", "q1 %", "median %", "q3 %", "max %", "mean best alpha")
	for _, bk := range buckets {
		g := bk.Gains
		tb.AddStringRow(
			fmt.Sprintf("%.1f", bk.Fraction*100),
			fmt.Sprintf("%.2f", g.Min*100),
			fmt.Sprintf("%.2f", g.Q1*100),
			fmt.Sprintf("%.2f", g.Median*100),
			fmt.Sprintf("%.2f", g.Q3*100),
			fmt.Sprintf("%.2f", g.Max*100),
			fmt.Sprintf("%.2f", bk.MeanBestAlpha),
		)
	}
	return tb.String()
}

// RenderTable1 prints the model parameter glossary (Table I of the paper).
func RenderTable1() string {
	tb := trace.NewTable("name", "description")
	rows := [][2]string{
		{"P", "Number of PEs."},
		{"N", "Number of overloading PEs."},
		{"gamma", "Number of iterations during which the application runs."},
		{"Wtot(i)", "Workload at iteration i; Wtot(0) = initial workload."},
		{"a^", "Average workload increase rate."},
		{"m^", "Workload increase rate (additional to a^) of the most loaded PEs."},
		{"a", "Amount of workload that goes to every PE at each iteration."},
		{"m", "Workload additional to a that goes to the overloading PEs."},
		{"deltaW", "Workload difference between two iterations; deltaW = a*P + m*N."},
		{"alpha", "Fraction of workload to remove from overloading PEs."},
		{"omega", "Speed of every PE."},
		{"C", "Cost of performing a LB step."},
		{"LBp", "Iteration of the previous LB call."},
		{"LBn", "Iteration of the next LB call."},
		{"I", "The set of all the LB intervals."},
	}
	for _, r := range rows {
		tb.AddStringRow(r[0], r[1])
	}
	return tb.String()
}

// RenderTable2 prints the random-instance distributions (Table II) exactly
// as the generator implements them.
func RenderTable2() string {
	tb := trace.NewTable("name", "distribution")
	for _, r := range instance.TableII() {
		tb.AddStringRow(r.Name, r.Distribution)
	}
	return tb.String()
}

// RuntimeScenarioTable returns the header of the runtime scenario section:
// one row per workload, the measured total against the no-LB baseline and
// the perfect-knowledge bound.
func RuntimeScenarioTable() *trace.Table {
	return trace.NewTable("workload", "total [s]", "no-LB [s]", "perfect [s]", "gain %", "eff %", "LB calls", "usage")
}

// AddRuntimeScenarioRow appends one runtime scenario outcome to the table.
// gain and efficiency come from the caller (RuntimeResult.Gain and
// .Efficiency), so the table and any machine-readable output of the same
// run can never disagree on their definition.
func AddRuntimeScenarioRow(tb *trace.Table, name string, tl lb.SynthResult, noLB, perfect, gain, efficiency float64) {
	tb.AddStringRow(
		name,
		fmt.Sprintf("%.4f", tl.TotalTime),
		fmt.Sprintf("%.4f", noLB),
		fmt.Sprintf("%.4f", perfect),
		fmt.Sprintf("%+.2f", gain*100),
		fmt.Sprintf("%.1f", efficiency*100),
		fmt.Sprintf("%d", tl.LBCount()),
		fmt.Sprintf("%.3f", tl.MeanUsage()),
	)
}
