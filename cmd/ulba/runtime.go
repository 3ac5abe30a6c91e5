package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/trace"
)

// runtimeCommand drives the runtime scenario engine: a registered workload
// runs on simulated PEs under a runtime trigger or a planner-precomputed
// schedule, and the measured timeline is reported against the no-LB
// baseline and the perfect-knowledge lower bound. With -sweep N, N sampled
// scenarios run through the RuntimeSweep engine instead.
func runtimeCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		workloadName = fs.String("workload", "linear", fmt.Sprintf("scenario workload, one of %v", ulba.WorkloadNames()))
		list         = fs.Bool("list-workloads", false, "print the registered workloads and exit")
		pes          = fs.Int("pes", 8, "number of simulated PEs")
		iters        = fs.Int("iters", 200, "iterations per scenario")
		trigName     = fs.String("trigger", "degradation", fmt.Sprintf("runtime trigger, one of %v", ulba.TriggerNames()))
		plannerName  = fs.String("planner", "", fmt.Sprintf("plan the LB schedule on the analytic model instead of reacting (one of %v); needs a modeled workload", ulba.PlannerNames()))
		period       = fs.Int("period", 10, "interval for -trigger/-planner periodic")
		wliThreshold = fs.Float64("wli-threshold", 0, "firing threshold for -trigger wli (0 keeps the default)")
		speedsFlag   = fs.String("speeds", "", "comma-separated per-PE speed factors for a heterogeneous cluster, e.g. 1,1,2,4 (empty: homogeneous)")
		annealSteps  = fs.Int("annealsteps", 20000, "proposals for -planner anneal")
		seed         = fs.Uint64("seed", 2019, "workload seed (and scenario-sampling seed for -sweep)")
		traceFile    = fs.String("trace-file", "", "CSV weight matrix for -workload trace (default: the built-in demo trace)")
		sweepN       = fs.Int("sweep", 0, "run N sampled scenarios through the RuntimeSweep engine instead of one")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel scenario workers for -sweep")
		width        = fs.Int("width", 100, "usage plot width in characters")
		jsonOut      = fs.Bool("json", false, "print one JSON object per iteration (or per sweep scenario) on stdout")
	)
	return func(stdout, stderr io.Writer) error {
		ctx := context.Background()
		if *list {
			for _, n := range ulba.WorkloadNames() {
				fmt.Fprintln(stdout, n)
			}
			return nil
		}
		if *sweepN > 0 {
			// Sweep mode samples its own workload mix under the default
			// trigger and prints no plot; reject the per-scenario flags
			// instead of silently ignoring them.
			var err error
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "workload", "trigger", "planner", "iters", "pes", "trace-file",
					"speeds", "period", "wli-threshold", "annealsteps", "width":
					if err == nil {
						err = usagef("-%s does not apply to -sweep: sweep scenarios are sampled over every registered workload under the default trigger", f.Name)
					}
				}
			})
			if err != nil {
				return err
			}
			return runSweep(ctx, stdout, stderr, *sweepN, *seed, *workers, *jsonOut)
		}

		if *traceFile != "" && *workloadName != "trace" {
			return usagef("-trace-file applies to -workload trace only, not %q", *workloadName)
		}
		var w ulba.Workload
		var err error
		if *traceFile != "" {
			w, err = loadTrace(*traceFile)
		} else {
			w, err = cli.SeededWorkload(*workloadName, *seed).Workload()
		}
		if err != nil {
			return usageError{err}
		}
		opts := []ulba.Option{ulba.WithWorkload(w), ulba.WithIterations(*iters)}
		if *speedsFlag != "" {
			speeds, err := parseList("speeds", *speedsFlag, func(s string) (float64, error) {
				return strconv.ParseFloat(s, 64)
			})
			if err != nil {
				return err
			}
			opts = append(opts, ulba.WithSpeeds(speeds))
		}
		if *plannerName != "" {
			planner, err := newPlanner(*plannerName, *period, *annealSteps, *seed)
			if err != nil {
				return err
			}
			opts = append(opts, ulba.WithPlanner(planner))
		} else {
			trig, err := newTrigger(*trigName, *period, *wliThreshold)
			if err != nil {
				return err
			}
			opts = append(opts, ulba.WithTrigger(trig))
		}
		exp, err := ulba.NewRuntime(*pes, opts...)
		if err != nil {
			return usageError{err}
		}

		start := time.Now()
		res, err := exp.Run(ctx)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		tl := res.Timeline

		if *jsonOut {
			enc := json.NewEncoder(stdout)
			lb := make(map[int]bool, len(tl.LBIters))
			for _, it := range tl.LBIters {
				lb[it] = true
			}
			for i, t := range tl.IterTimes {
				rec := map[string]any{"iter": i, "time": t, "usage": tl.Usage[i], "wli": tl.WLI[i], "lb": lb[i]}
				if err := enc.Encode(rec); err != nil {
					return fmt.Errorf("json: %w", err)
				}
			}
			fmt.Fprintf(stderr, "runtime: %s x %d PEs x %d iters: total %.4fs, no-LB %.4fs, perfect %.4fs, gain %+.2f%%, %d LB calls (%.2fs real)\n",
				*workloadName, *pes, *iters, tl.TotalTime, res.NoLBTime, res.PerfectTime,
				res.Gain()*100, tl.LBCount(), elapsed.Seconds())
			return nil
		}

		policy := "trigger " + *trigName
		if *plannerName != "" {
			policy = fmt.Sprintf("planner %s (%d planned steps)", *plannerName, len(exp.PlannedSchedule()))
		}
		fmt.Fprintf(stdout, "Runtime scenario: workload %s, %d PEs, %d iterations, %s (%.2fs real)\n\n",
			*workloadName, *pes, *iters, policy, elapsed.Seconds())
		tab := trace.NewTable("quantity", "value")
		tab.AddRow("total time [s]", tl.TotalTime)
		tab.AddRow("no-LB baseline [s]", res.NoLBTime)
		tab.AddRow("perfect-knowledge bound [s]", res.PerfectTime)
		tab.AddRow("gain over no-LB", fmt.Sprintf("%+.2f%%", res.Gain()*100))
		tab.AddRow("efficiency (perfect/total)", fmt.Sprintf("%.1f%%", res.Efficiency()*100))
		tab.AddRow("LB calls", tl.LBCount())
		tab.AddRow("avg LB cost [s]", tl.AvgLBCost)
		tab.AddRow("mean PE usage", fmt.Sprintf("%.1f%%", tl.MeanUsage()*100))
		tab.AddRow("mean WLI (max-avg)/avg", fmt.Sprintf("%.3f", tl.MeanWLI()))
		tab.Render(stdout)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.UsagePlot(fmt.Sprintf("%s / %s", *workloadName, policy), tl.Usage, tl.LBIters, *width))
		return nil
	}
}

// loadTrace reads a CSV weight matrix for the trace workload.
func loadTrace(path string) (ulba.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ulba.LoadTraceWorkload(f)
}

// runSweep samples n scenarios over the registered workloads and runs them
// through the RuntimeSweep engine.
func runSweep(ctx context.Context, stdout, stderr io.Writer, n int, seed uint64, workers int, jsonOut bool) error {
	names := ulba.WorkloadNames()
	exps, scens, err := cli.BuildScenarios(seed, n)
	if err != nil {
		return err
	}
	sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(workers))
	if err != nil {
		return err
	}
	start := time.Now()
	sum, results, err := sweep.Run(ctx, exps)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	elapsed := time.Since(start)

	if jsonOut {
		enc := json.NewEncoder(stdout)
		for i, r := range results {
			rec := map[string]any{
				"scenario": i, "workload": scens[i].Workload, "pes": scens[i].P,
				"iters": scens[i].Iterations, "total_time": r.Timeline.TotalTime,
				"no_lb_time": r.NoLBTime, "perfect_time": r.PerfectTime,
				"gain": r.Gain(), "efficiency": r.Efficiency(), "lb_calls": r.Timeline.LBCount(),
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("json: %w", err)
			}
		}
		fmt.Fprintf(stderr, "runtime sweep: %d scenarios over %s, %.1f scenarios/sec\n",
			n, strings.Join(names, ","), float64(n)/elapsed.Seconds())
		return nil
	}
	fmt.Fprintf(stdout, "Runtime sweep: %d scenarios over %d workloads, %d workers (%.2fs, %.1f scenarios/sec)\n\n",
		n, len(names), workers, elapsed.Seconds(), float64(n)/elapsed.Seconds())
	tab := trace.NewTable("quantity", "value")
	tab.AddRow("scenarios", sum.Scenarios)
	tab.AddRow("median gain over no-LB", fmt.Sprintf("%+.2f%%", sum.Gains.Median*100))
	tab.AddRow("mean gain over no-LB", fmt.Sprintf("%+.2f%%", sum.Gains.Mean*100))
	tab.AddRow("median efficiency", fmt.Sprintf("%.1f%%", sum.Efficiencies.Median*100))
	tab.AddRow("mean LB calls", sum.MeanLBCalls)
	tab.AddRow("mean PE usage", fmt.Sprintf("%.1f%%", sum.MeanUsage*100))
	tab.AddRow("mean WLI (max-avg)/avg", fmt.Sprintf("%.3f", sum.MeanWLI))
	tab.Render(stdout)
	return nil
}
