package main

import (
	"flag"
	"fmt"
	"io"

	"ulba"
	"ulba/internal/trace"
)

// modelCommand evaluates the analytic application model for one parameter
// set: the LB interval bounds sigma- and sigma+, Menon's tau, the schedules
// of the standard method and of a registry-selected planner, and the total
// parallel times of both methods.
func modelCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		p           = fs.Int("P", 256, "number of PEs")
		n           = fs.Int("N", 25, "number of overloading PEs")
		gamma       = fs.Int("gamma", 100, "iterations")
		w0          = fs.Float64("w0", 2.56e11, "initial total workload (FLOP)")
		growth      = fs.Float64("growth", 0.1, "workload growth per iteration as a fraction of W0/P")
		skew        = fs.Float64("skew", 0.9, "fraction y of the growth concentrated on overloading PEs")
		alpha       = fs.Float64("alpha", 0.5, "ULBA underloading fraction")
		omega       = fs.Float64("omega", 1e9, "PE speed (FLOP/s)")
		costfrac    = fs.Float64("costfrac", 0.5, "LB cost as a fraction of one iteration's compute time")
		grid        = fs.Int("bestalpha", 0, "if > 0, also scan this many alphas for the best one")
		plannerName = fs.String("planner", "sigma+", fmt.Sprintf("LB schedule planner for the ULBA side, one of %v", ulba.PlannerNames()))
		period      = fs.Int("period", 10, "interval for -planner periodic")
		annealSteps = fs.Int("annealsteps", 20000, "proposals for -planner anneal")
		seed        = fs.Uint64("seed", 7, "seed for -planner anneal")
	)
	return func(stdout, _ io.Writer) error {
		params := ulba.ModelParams{
			P: *p, N: *n, Gamma: *gamma, W0: *w0, Omega: *omega, Alpha: *alpha,
		}
		params.DeltaW = *growth * params.W0 / float64(params.P)
		params.A = params.DeltaW * (1 - *skew) / float64(params.P)
		if *n > 0 {
			params.M = params.DeltaW * *skew / float64(params.N)
		}
		params.C = *costfrac * params.W0 / (float64(params.P) * params.Omega)
		if err := params.Validate(); err != nil {
			return usagef("invalid parameters: %v", err)
		}
		planner, err := newPlanner(*plannerName, *period, *annealSteps, *seed)
		if err != nil {
			return err
		}

		fmt.Fprintln(stdout, "parameters:", params)
		fmt.Fprintln(stdout)
		tb := trace.NewTable("quantity", "value")
		tb.AddStringRow("a^ (avg WIR)", fmt.Sprintf("%.6g FLOP/iter", params.AHat()))
		tb.AddStringRow("m^ (extra WIR of most loaded)", fmt.Sprintf("%.6g FLOP/iter", params.MHat()))
		if sm, err := params.SigmaMinus(0); err == nil {
			tb.AddStringRow("sigma-(0)", fmt.Sprintf("%d iterations", sm))
		} else {
			tb.AddStringRow("sigma-(0)", err.Error())
		}
		if sp, err := params.SigmaPlus(0); err == nil {
			tb.AddStringRow("sigma+(0)", fmt.Sprintf("%.2f iterations", sp))
		} else {
			tb.AddStringRow("sigma+(0)", err.Error())
		}
		if tau, err := params.WithAlpha(0).MenonTau(); err == nil {
			tb.AddStringRow("Menon tau", fmt.Sprintf("%.2f iterations", tau))
		}
		tb.Render(stdout)
		fmt.Fprintln(stdout)

		stdSched, err := ulba.MenonPlanner{}.Plan(params, 0)
		if err != nil {
			return fmt.Errorf("standard planner: %w", err)
		}
		ulbaSched, err := planner.Plan(params, 0)
		if err != nil {
			return fmt.Errorf("planner: %w", err)
		}
		fmt.Fprintf(stdout, "standard schedule (%d calls): %v\n", stdSched.Count(), stdSched)
		fmt.Fprintf(stdout, "%-8s schedule (%d calls): %v\n", planner.Name(), ulbaSched.Count(), ulbaSched)
		if ivs := ulbaSched.Intervals(); len(ivs) > 0 {
			fmt.Fprintf(stdout, "%-8s intervals: %v\n", planner.Name(), ivs)
		}
		fmt.Fprintln(stdout)

		std := ulba.StandardTotalTime(params)
		ul := ulba.EvaluateSchedule(params, ulbaSched)
		fmt.Fprintf(stdout, "standard method total time: %.6f s\n", std)
		fmt.Fprintf(stdout, "ULBA (alpha=%.2f, %s plan) total time: %.6f s  (gain %+.2f%%)\n",
			params.Alpha, planner.Name(), ul, 100*(std-ul)/std)
		if *grid > 0 {
			a, best := ulba.BestAlpha(params, *grid)
			fmt.Fprintf(stdout, "best alpha of %d-grid: %.3f -> %.6f s (gain %+.2f%%)\n",
				*grid, a, best, 100*(std-best)/std)
		}
		return nil
	}
}
