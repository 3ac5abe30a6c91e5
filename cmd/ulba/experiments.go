package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/experiments"
	"ulba/internal/simulate"
)

// experimentsCommand regenerates the tables and figures of the paper's
// evaluation section at a chosen scale, in the order they appear in the
// paper: -planner picks the planner the Fig. 3 sweep evaluates ULBA on,
// -trigger the runtime trigger of the Fig. 4 erosion runs and the -runtime
// scenarios, and -workload the scenarios of the -runtime section.
func experimentsCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		all          = fs.Bool("all", false, "run every experiment")
		table1       = fs.Bool("table1", false, "print Table I")
		table2       = fs.Bool("table2", false, "print Table II")
		fig2         = fs.Bool("fig2", false, "run Fig. 2 (sigma+ vs annealing)")
		fig3         = fs.Bool("fig3", false, "run Fig. 3 (gain vs overloading %)")
		fig4a        = fs.Bool("fig4a", false, "run Fig. 4a (erosion performance grid)")
		fig4b        = fs.Bool("fig4b", false, "run Fig. 4b (usage traces)")
		fig5         = fs.Bool("fig5", false, "run Fig. 5 (alpha sweep)")
		runtimeSec   = fs.Bool("runtime", false, "run the runtime scenario section (trigger vs workloads beyond erosion)")
		workload     = fs.String("workload", "all", fmt.Sprintf("workload(s) for -runtime: comma-separated names or \"all\", from %v", ulba.WorkloadNames()))
		runtimePEs   = fs.Int("runtime-pes", 8, "PE count for the runtime scenario section")
		runtimeIter  = fs.Int("runtime-iters", 150, "iterations for the runtime scenario section")
		scaleName    = fs.String("scale", "default", "erosion experiment scale: bench | default | paper")
		instances    = fs.Int("instances", 200, "instances for Fig. 2 / per bucket for Fig. 3 (paper: 1000)")
		alphaGrid    = fs.Int("alphas", 100, "alpha grid size for Fig. 3")
		pes          = fs.String("pes", "16,32,64", "comma-separated PE counts for Fig. 4a/5 (paper: 32,64,128,256)")
		fig4bPE      = fs.Int("fig4b-pes", 32, "PE count for Fig. 4b (paper: 32)")
		alpha        = fs.Float64("alpha", 0.4, "ULBA alpha for Fig. 4 (paper: 0.4)")
		plannerName  = fs.String("planner", "sigma+", fmt.Sprintf("Fig. 3 schedule planner, one of %v", ulba.PlannerNames()))
		trigName     = fs.String("trigger", "degradation", fmt.Sprintf("Fig. 4 runtime trigger, one of %v", ulba.TriggerNames()))
		period       = fs.Int("period", 10, "interval for -planner/-trigger periodic")
		wliThreshold = fs.Float64("wli-threshold", 0, "firing threshold for -trigger wli (0 keeps the default)")
		annealSteps  = fs.Int("annealsteps", 20000, "proposals for -planner anneal and Fig. 2")
		seed         = fs.Uint64("seed", 2019, "seed for the synthetic experiments")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for the synthetic experiments")
		jsonOut      = fs.Bool("json", false, "print one JSON object per instance/cell on stdout (summaries go to stderr)")
	)
	return func(stdout, stderr io.Writer) error {
		ctx := context.Background()
		if *all {
			*table1, *table2, *fig2, *fig3, *fig4a, *fig4b, *fig5, *runtimeSec = true, true, true, true, true, true, true, true
		}
		if !(*table1 || *table2 || *fig2 || *fig3 || *fig4a || *fig4b || *fig5 || *runtimeSec) {
			fs.Usage()
			return usagef("nothing to do: pass -all or individual experiment flags")
		}
		scales := map[string]func() experiments.Scale{
			"bench": experiments.BenchScale, "default": experiments.DefaultScale, "paper": experiments.PaperScale,
		}
		newScale, ok := scales[*scaleName]
		if !ok {
			return usagef("unknown scale %q", *scaleName)
		}
		scale := newScale()
		trig, err := newTrigger(*trigName, *period, *wliThreshold)
		if err != nil {
			return err
		}
		if *trigName != "degradation" {
			scale.TriggerFactory = trig.New
			if cli.WarmupDisabled(trig) {
				// No forced warmup call: the static baseline stays LB-free
				// and a replay plan must not be distorted.
				scale.WarmupLB = -1
			}
		}
		planner, err := newPlanner(*plannerName, *period, *annealSteps, *seed)
		if err != nil {
			return err
		}
		ps, err := parseList("pes", *pes, strconv.Atoi)
		if err != nil {
			return err
		}

		// failed is the first error of a section: it stops the JSON stream
		// and the run after that section.
		var failed error
		enc := json.NewEncoder(stdout)
		emit := func(v any) {
			if failed != nil {
				return
			}
			if err := enc.Encode(v); err != nil {
				failed = fmt.Errorf("json: %w", err)
			}
		}
		out := stdout
		if *jsonOut {
			out = stderr // keep stdout machine-readable
		}
		names := ulba.WorkloadNames()
		if *workload != "all" {
			names = strings.Split(*workload, ",")
		}
		sections := []struct {
			enabled bool
			name    string
			run     func()
		}{
			{*table1, "Table I: model parameters", func() {
				fmt.Fprint(out, experiments.RenderTable1())
			}},
			{*table2, "Table II: random application parameter distributions", func() {
				fmt.Fprint(out, experiments.RenderTable2())
			}},
			{*fig2, fmt.Sprintf("Fig. 2: sigma+ vs simulated annealing (%d instances)", *instances), func() {
				res := simulate.RunFig2(simulate.Fig2Config{
					Instances: *instances, AnnealSteps: *annealSteps, Seed: *seed, Workers: *workers,
				})
				if *jsonOut {
					for i, g := range res.Gains {
						emit(map[string]any{"experiment": "fig2", "instance": i, "gain": g})
					}
				}
				fmt.Fprint(out, experiments.RenderFig2(res))
			}},
			{*fig3, fmt.Sprintf("Fig. 3: ULBA vs standard on the model (%d instances/bucket, planner %s)",
				*instances, planner.Name()), func() {
				var visit func(frac float64, i int, c ulba.Comparison)
				if *jsonOut {
					visit = func(frac float64, i int, c ulba.Comparison) {
						emit(map[string]any{
							"experiment": "fig3", "planner": planner.Name(), "fraction": frac,
							"instance": i, "std_time": c.StdTime, "ulba_time": c.ULBATime,
							"best_alpha": c.BestAlpha, "gain": c.Gain,
						})
					}
				}
				buckets, err := cli.RunFig3Sweep(ctx, planner, *instances, *alphaGrid, *seed, *workers, visit)
				if err != nil {
					failed = fmt.Errorf("sweep: %w", err)
					return
				}
				fmt.Fprint(out, experiments.RenderFig3(buckets))
			}},
			{*fig4a, fmt.Sprintf("Fig. 4a: erosion application, standard vs ULBA (scale %s, trigger %s)",
				*scaleName, *trigName), func() {
				cells := experiments.RunFig4a(scale, ps, []int{1, 2, 3}, *alpha)
				if *jsonOut {
					for _, c := range cells {
						emit(map[string]any{
							"experiment": "fig4a", "trigger": *trigName, "pes": c.P, "rocks": c.Rocks,
							"std_time": c.StdTime, "ulba_time": c.ULBATime,
							"std_calls": c.StdCalls, "ulba_calls": c.ULBACall, "gain": c.Gain,
						})
					}
				}
				fmt.Fprint(out, experiments.RenderFig4a(cells))
			}},
			{*fig4b, fmt.Sprintf("Fig. 4b: PE usage traces, %d PEs, 1 strong rock", *fig4bPE), func() {
				res := experiments.RunFig4b(scale, *fig4bPE, *alpha)
				if *jsonOut {
					emit(map[string]any{
						"experiment": "fig4b", "trigger": *trigName, "pes": *fig4bPE,
						"std_calls": res.Std.LBCount(), "ulba_calls": res.ULBA.LBCount(),
						"calls_avoided": res.CallReduction(),
						"std_usage":     res.Std.MeanUsage(), "ulba_usage": res.ULBA.MeanUsage(),
					})
				}
				fmt.Fprint(out, experiments.RenderFig4b(res, 100))
			}},
			{*runtimeSec, fmt.Sprintf("Runtime scenarios: trigger %s over %d workloads (%d PEs, %d iters)",
				*trigName, len(names), *runtimePEs, *runtimeIter), func() {
				tab := experiments.RuntimeScenarioTable()
				for _, name := range names {
					name = strings.TrimSpace(name)
					w, err := cli.SeededWorkload(name, *seed).Workload()
					if err != nil {
						failed = usageError{err}
						return
					}
					exp, err := ulba.NewRuntime(*runtimePEs,
						ulba.WithWorkload(w), ulba.WithIterations(*runtimeIter), ulba.WithTrigger(trig))
					if err != nil {
						failed = usageError{err}
						return
					}
					res, err := exp.Run(ctx)
					if err != nil {
						failed = err
						return
					}
					if *jsonOut {
						emit(map[string]any{
							"experiment": "runtime", "workload": name, "trigger": *trigName,
							"pes": *runtimePEs, "iters": *runtimeIter,
							"total_time": res.Timeline.TotalTime, "no_lb_time": res.NoLBTime,
							"perfect_time": res.PerfectTime, "gain": res.Gain(),
							"efficiency": res.Efficiency(), "lb_calls": res.Timeline.LBCount(),
						})
					}
					experiments.AddRuntimeScenarioRow(tab, name, res.Timeline,
						res.NoLBTime, res.PerfectTime, res.Gain(), res.Efficiency())
				}
				tab.Render(out)
			}},
			{*fig5, "Fig. 5: ULBA total time vs alpha (1 strong rock)", func() {
				points := experiments.RunFig5(scale, ps, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
				if *jsonOut {
					for _, pt := range points {
						emit(map[string]any{
							"experiment": "fig5", "pes": pt.P, "alpha": pt.Alpha, "time": pt.Time,
						})
					}
				}
				fmt.Fprint(out, experiments.RenderFig5(points))
			}},
		}
		for _, sec := range sections {
			if !sec.enabled {
				continue
			}
			start := time.Now()
			fmt.Fprintf(out, "==== %s ====\n", sec.name)
			sec.run()
			if failed != nil {
				return failed
			}
			fmt.Fprintf(out, "(%.1fs)\n\n", time.Since(start).Seconds())
		}
		return nil
	}
}
