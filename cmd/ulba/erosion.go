package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ulba"
	"ulba/internal/erosion"
	"ulba/internal/experiments"
	"ulba/internal/lb"
	"ulba/internal/trace"
)

// erosionCommand runs the fluid-with-erosion application (Section IV-B of
// the paper) on the simulated distributed-memory runtime under a chosen LB
// method and trigger, and prints the timings, the LB call history and a
// terminal rendering of the PE-usage trace. With -compare it also runs the
// standard method on the identical instance (the counter-based physics
// erode the same cells either way) and reports the gain.
func erosionCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		p            = fs.Int("P", 32, "number of PEs (= stripes = rocks)")
		rocks        = fs.Int("rocks", 1, "number of strongly erodible rocks")
		alpha        = fs.Float64("alpha", 0.4, "ULBA underloading fraction")
		method       = fs.String("method", "ulba", "lb method: standard | ulba | none")
		trigName     = fs.String("trigger", "degradation", fmt.Sprintf("runtime trigger, one of %v", ulba.TriggerNames()))
		period       = fs.Int("period", 10, "interval for -trigger periodic")
		wliThreshold = fs.Float64("wli-threshold", 0, "firing threshold for -trigger wli (0 keeps the default)")
		iters        = fs.Int("iters", 120, "iterations")
		width        = fs.Int("stripewidth", 192, "columns per initial stripe")
		height       = fs.Int("height", 400, "rows")
		radius       = fs.Int("radius", 48, "rock disc radius (cells)")
		seed         = fs.Uint64("seed", 1, "random seed")
		zthr         = fs.Float64("z", 3.0, "overload z-score threshold")
		compare      = fs.Bool("compare", false, "run standard AND the chosen method, report the gain")
		rcb          = fs.Bool("rcb", false, "use recursive bisection (standard method only)")
		csvPath      = fs.String("csv", "", "write per-iteration time/usage series to this CSV file")
		plotW        = fs.Int("plotwidth", 100, "terminal width of the usage plots")
	)
	return func(stdout, _ io.Writer) error {
		ctx := context.Background()
		scale := experiments.DefaultScale()
		scale.StripeWidth = *width
		scale.Height = *height
		scale.Radius = *radius
		scale.Iterations = *iters

		m, noLB := ulba.Standard, false
		switch *method {
		case "standard":
		case "ulba":
			m = ulba.ULBA
			if *rcb {
				// Bisection is a standard-method partitioner: the ULBA run
				// and its -compare baseline would both ignore it.
				return usagef("-rcb applies to the standard method only: use -method standard or none")
			}
		case "none":
			noLB = true
		default:
			return usagef("unknown method %q", *method)
		}

		// The -trigger flag drives the configured run (and the -compare
		// baseline); -method none overrides the run's trigger to never but
		// leaves the baseline reactive, so the comparison stays
		// static-vs-standard.
		trig, err := newTrigger(*trigName, *period, *wliThreshold)
		if err != nil {
			return err
		}
		runTrig := trig
		if noLB {
			runTrig = ulba.NeverTrigger{}
		}
		build := func(m ulba.Method, t ulba.Trigger) (*ulba.Experiment, error) {
			exp, err := ulba.New(*p,
				ulba.WithMethod(m),
				ulba.WithAlpha(*alpha),
				ulba.WithApp(scale.App(*p, *rocks, *seed)),
				ulba.WithCostModel(experiments.Cost()),
				ulba.WithIterations(*iters),
				ulba.WithZThreshold(*zthr),
				ulba.WithRCB(*rcb && m == ulba.Standard),
				ulba.WithTrigger(t),
				ulba.WithWorkers(2),
			)
			if err != nil {
				return nil, usagef("invalid experiment: %v", err)
			}
			return exp, nil
		}
		exp, err := build(m, runTrig)
		if err != nil {
			return err
		}

		// With -compare, one Compare call yields both runs; otherwise run
		// the configured method alone. A -method none comparison needs its
		// own baseline experiment, since the baseline must keep balancing;
		// both runs still replay one trace of the shared physics.
		var res ulba.RunResult
		var cmp ulba.MethodComparison
		switch {
		case *compare && noLB:
			var base *ulba.Experiment
			if base, err = build(ulba.Standard, trig); err != nil {
				return err
			}
			var tr *erosion.Trace
			if tr, err = erosion.NewTrace(exp.Config().App, *iters); err == nil {
				if cmp.Baseline, err = lb.Run(base.Config(), tr); err == nil {
					cmp.Result, err = lb.Run(exp.Config(), tr)
				}
			}
			res = cmp.Result
		case *compare:
			cmp, err = exp.Compare(ctx)
			res = cmp.Result
		default:
			res, err = exp.Run(ctx)
		}
		if err != nil {
			return fmt.Errorf("run failed: %w", err)
		}

		cfg := exp.Config()
		fmt.Fprintf(stdout, "%s (trigger %s): P=%d rocks=%d alpha=%.2f iters=%d domain=%dx%d\n",
			*method, runTrig.Name(), *p, *rocks, *alpha, *iters, cfg.App.Width(), cfg.App.Height)
		fmt.Fprintf(stdout, "total time      : %.6f s (virtual)\n", res.TotalTime)
		fmt.Fprintf(stdout, "mean PE usage   : %.3f\n", res.MeanUsage())
		fmt.Fprintf(stdout, "LB calls        : %d at %v\n", res.LBCount(), res.LBIters)
		fmt.Fprintf(stdout, "overloading/call: %v\n", res.LBOverloading)
		fmt.Fprintf(stdout, "avg LB cost     : %.6f s\n", res.AvgLBCost)
		fmt.Fprintf(stdout, "cells eroded    : %d (final workload %.0f units)\n", res.Eroded, res.FinalWorkload)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.UsagePlot(*method, res.Usage, res.LBIters, *plotW))

		if *compare {
			std := cmp.Baseline
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, trace.UsagePlot("standard", std.Usage, std.LBIters, *plotW))
			fmt.Fprintf(stdout, "\nstandard: %.6f s with %d LB calls\n", std.TotalTime, std.LBCount())
			fmt.Fprintf(stdout, "%-8s: %.6f s with %d LB calls\n", *method, cmp.Result.TotalTime, cmp.Result.LBCount())
			fmt.Fprintf(stdout, "gain: %+.2f%% (%.1f%% of LB calls avoided)\n", 100*cmp.Gain(), 100*cmp.CallsAvoided())
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, res); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
			fmt.Fprintf(stdout, "\nwrote %s\n", *csvPath)
		}
		return nil
	}
}

func writeCSV(path string, res ulba.RunResult) error {
	tb := trace.NewTable("iteration", "time_s", "usage")
	for i := range res.IterTimes {
		tb.AddStringRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.9f", res.IterTimes[i]),
			fmt.Sprintf("%.6f", res.Usage[i]),
		)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
