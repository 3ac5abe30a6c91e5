package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinyErosion is an erosion instance that runs in a fraction of a second.
const tinyErosion = "erosion -P 8 -stripewidth 48 -height 100 -radius 12 -iters 40"

func runArgs(args string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(strings.Fields(args), &out, &errOut)
	return code, out.String(), errOut.String()
}

// Every subcommand maps its outcome to one exit status: 0 on success or
// -h, 2 on a configuration error, 1 on a failed run.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "usage.csv")
	cases := []struct {
		args string
		want int
	}{
		{"", 2},
		{"-h", 0},
		{"synth -fig3", 2},
		{"model -h", 0},
		{"model -table1", 2},
		{"model -bestalpha 5", 0},
		{"model -planner bogus", 2},
		{"model -P 0", 1},
		{"experiments -table1 -table2", 0},
		{"experiments", 2},
		{"experiments -fig3 -planner bogus", 2},
		{"experiments -fig4a -trigger bogus", 2},
		{"experiments -runtime -workload bogus", 2},
		{"experiments -fig4a -scale huge", 2},
		{"experiments -fig4a -pes 8,x", 2},
		{"experiments -fig3 -alphas 0 -instances 2", 1},
		{tinyErosion, 0},
		{tinyErosion + " -trigger bogus", 2},
		{tinyErosion + " -method bogus", 2},
		{tinyErosion + " -P 0", 2},
		{tinyErosion + " -csv " + missing, 1},
		{"runtime -workload bursty -pes 4 -iters 30", 0},
		{"runtime -list-workloads", 0},
		{"runtime -workload bogus", 2},
		{"runtime -trigger bogus", 2},
		{"runtime -planner bogus", 2},
		{"runtime -workload trace -trace-file " + missing, 2},
		{"runtime -sweep 3 -workers 1", 0},
		{"assess -n 2 -criteria degradation,never", 0},
		{"assess -list-criteria", 0},
		{"assess -criteria bogus", 2},
		{"assess -criteria ,", 2},
	}
	for _, c := range cases {
		if got, _, stderr := runArgs(c.args); got != c.want {
			t.Errorf("ulba %s: exit %d, want %d (stderr: %s)", c.args, got, c.want, stderr)
		}
	}
}

// Flags a run would silently ignore are configuration errors: each exits
// 2 before printing anything and names the offending flag.
func TestIgnoredFlagsRejected(t *testing.T) {
	cases := []struct{ args, flag string }{
		{"runtime -sweep 6 -speeds 1,9,1,9", "-speeds"},
		{"runtime -sweep 6 -period 5", "-period"},
		{"runtime -sweep 6 -wli-threshold 0.3", "-wli-threshold"},
		{"runtime -sweep 6 -annealsteps 10", "-annealsteps"},
		{"runtime -sweep 6 -width 50", "-width"},
		{"runtime -sweep 6 -workload linear", "-workload"},
		{tinyErosion + " -rcb", "-rcb"},
		{tinyErosion + " -compare -rcb", "-rcb"},
		{tinyErosion + " -wli-threshold -1", "-wli-threshold"},
		{"runtime -trigger wli -wli-threshold -0.5", "-wli-threshold"},
		{"experiments -runtime -trigger wli -wli-threshold -1", "-wli-threshold"},
	}
	for _, c := range cases {
		code, stdout, stderr := runArgs(c.args)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.flag) {
			t.Errorf("ulba %s: exit %d, stdout %q, stderr %q; want exit 2, no output, an error naming %s",
				c.args, code, stdout, stderr, c.flag)
		}
	}
	// -rcb stays valid where it applies: the standard method, and the
	// standard baseline of a -method none comparison.
	for _, args := range []string{tinyErosion + " -method standard -rcb", tinyErosion + " -method none -compare -rcb"} {
		if code, _, stderr := runArgs(args); code != 0 {
			t.Errorf("ulba %s: exit %d (%s)", args, code, stderr)
		}
	}
}

// The subcommands keep the flag names of the drivers they replace; model
// alone dropped -table1, which `ulba experiments -table1` prints.
func TestFlagNames(t *testing.T) {
	want := map[string]string{
		"model":       "N P alpha annealsteps bestalpha costfrac gamma growth omega period planner seed skew w0",
		"experiments": "all alpha alphas annealsteps fig2 fig3 fig4a fig4b fig4b-pes fig5 instances json period pes planner runtime runtime-iters runtime-pes scale seed table1 table2 trigger wli-threshold workers workload",
		"erosion":     "P alpha compare csv height iters method period plotwidth radius rcb rocks seed stripewidth trigger wli-threshold z",
		"runtime":     "annealsteps iters json list-workloads period pes planner seed speeds sweep trace-file trigger width wli-threshold workers workload",
		"assess":      "criteria json list-criteria n seed workers",
	}
	total := 0
	for name, names := range subcommandFlags() {
		list := make([]string, 0, len(names))
		for n := range names {
			list = append(list, n)
		}
		sort.Strings(list)
		total += len(list)
		if got := strings.Join(list, " "); got != want[name] {
			t.Errorf("%s flags:\n got %s\nwant %s", name, got, want[name])
		}
	}
	if total != 79 {
		t.Errorf("%d flags across the subcommands, want 79", total)
	}
}

// subcommandFlags returns each subcommand's flag names, read off the flag
// set its setup registers, without running anything.
func subcommandFlags() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		out[c.name] = map[string]bool{}
		fs.VisitAll(func(f *flag.Flag) { out[c.name][f.Name] = true })
	}
	return out
}
