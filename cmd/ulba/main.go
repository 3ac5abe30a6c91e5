// Command ulba reproduces the paper's evaluation and drives its engines
// from the command line, one subcommand per driver:
//
//	ulba model        the analytic model (Eqs. 1-12) for one parameter set
//	ulba experiments  Tables I-II, Figs. 2-5 and the runtime scenario section
//	ulba erosion      one run of the fluid-with-erosion application
//	ulba runtime      one runtime scenario, or a sampled RuntimeSweep
//	ulba assess       rank LB criteria against the perfect-knowledge bound
//
// Policies and scenarios are selected by registry name: -planner (see
// ulba.PlannerNames), -trigger (ulba.TriggerNames) and -workload
// (ulba.WorkloadNames). With -json, per-instance, per-cell or
// per-iteration records go to stdout one JSON object per line, and
// summaries go to stderr. `ulba <subcommand> -h` lists a subcommand's flags.
//
// Examples:
//
//	ulba model -P 256 -N 25 -alpha 0.5 -costfrac 0.5 -planner anneal
//	ulba experiments -all                 # default scale, everything
//	ulba experiments -fig4a -scale bench  # quick shape check
//	ulba experiments -fig3 -planner anneal -instances 50 -json
//	ulba experiments -runtime -workload bursty,outlier -trigger menon
//	ulba erosion -P 32 -rocks 1 -alpha 0.4 -compare
//	ulba erosion -P 64 -method ulba -iters 200 -csv usage.csv
//	ulba runtime -workload linear -planner sigma+
//	ulba runtime -workload trace -trace-file run.csv
//	ulba runtime -sweep 32 -workers 4
//	ulba assess -criteria degradation,menon,wli -n 64 -json
//
// ulba exits 0 on success, 2 on a configuration error (an unknown flag or
// registry name, a bad flag value or combination) and 1 when a run fails.
// The HTTP service is the separate ulba-serve binary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ulba"
	"ulba/internal/cli"
)

// A command registers its flags on fs and returns the action that runs
// once they are parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

var commands = []command{
	{"model", "evaluate the analytic model for one parameter set", modelCommand},
	{"experiments", "regenerate the paper's tables and figures", experimentsCommand},
	{"erosion", "run the fluid-with-erosion application", erosionCommand},
	{"runtime", "run a runtime scenario or a sampled scenario sweep", runtimeCommand},
	{"assess", "rank LB criteria against the perfect-knowledge bound", assessCommand},
}

// usageError marks a configuration error, on which ulba exits 2; any other
// error is a failed run and exits 1.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the subcommand args[0] with the flags args[1:] and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 {
		name = args[0]
	}
	for _, c := range commands {
		if c.name == name {
			return c.run(args[1:], stdout, stderr)
		}
	}
	status := 2
	switch name {
	case "":
	case "-h", "-help", "--help":
		status = 0
	default:
		fmt.Fprintf(stderr, "ulba: unknown subcommand %q\n", name)
	}
	fmt.Fprint(stderr, "usage: ulba <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	return status
}

// run parses args into the subcommand's flags, runs it and returns the exit
// status.
func (c command) run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ulba "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	action := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has reported the error
	}
	err := action(stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// newPlanner builds a registry planner and applies the -period,
// -annealsteps and -seed flags to it.
func newPlanner(name string, period, annealSteps int, seed uint64) (ulba.Planner, error) {
	p, err := ulba.NewPlanner(name)
	if err != nil {
		return nil, usageError{err}
	}
	return cli.ConfigurePlanner(p, period, annealSteps, seed), nil
}

// newTrigger builds a registry trigger and applies the -period and
// -wli-threshold flags to it.
func newTrigger(name string, period int, wliThreshold float64) (ulba.Trigger, error) {
	if wliThreshold < 0 {
		return nil, usagef("-wli-threshold %g is negative (0 keeps the default)", wliThreshold)
	}
	t, err := ulba.NewTrigger(name)
	if err != nil {
		return nil, usageError{err}
	}
	return cli.ConfigureTrigger(t, period, wliThreshold), nil
}

// parseList parses a comma-separated flag value with parse, one entry at a
// time.
func parseList[T any](flagName, s string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, usagef("-%s entry %d: %v", flagName, i, err)
		}
		out[i] = v
	}
	return out, nil
}
