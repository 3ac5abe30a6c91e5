package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/trace"
)

// assessCommand ranks load-balancing criteria (runtime triggers and
// model-planned schedules) against the perfect-knowledge bound over a
// sampled scenario set, after the assessment methodology of
// arXiv:2104.01688: every criterion runs the same scenarios, the ranking
// orders them by mean efficiency, and regret is measured against the
// panel's best. A criterion spelled plan:NAME plans its schedule on the
// analytic model with the named planner instead of reacting at runtime.
func assessCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		n        = fs.Int("n", 16, "sampled scenarios per criterion")
		seed     = fs.Uint64("seed", 2019, "scenario-sampling seed")
		criteria = fs.String("criteria", "", "comma-separated criteria: trigger names and plan:PLANNER entries (empty: every registered trigger)")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel assessment-cell workers")
		list     = fs.Bool("list-criteria", false, "print the default criteria panel and exit")
		jsonOut  = fs.Bool("json", false, "print one JSON object per criterion on stdout")
	)
	return func(stdout, stderr io.Writer) error {
		if *list {
			for _, c := range ulba.DefaultCriteria() {
				fmt.Fprintln(stdout, c.DisplayName())
			}
			return nil
		}
		panel, err := parseCriteria(*criteria)
		if err != nil {
			return usageError{err}
		}
		a, err := ulba.NewAssessment(panel, cli.BuildAssessmentScenarios(*seed, *n), ulba.WithWorkers(*workers))
		if err != nil {
			return usageError{err}
		}

		start := time.Now()
		summary, _, err := a.Run(context.Background())
		if err != nil {
			return err
		}
		elapsed := time.Since(start)

		// Rank by mean efficiency, best first; ties keep declaration order,
		// matching the summary's Best rule.
		ranked := append([]ulba.CriterionScore(nil), summary.Criteria...)
		sort.SliceStable(ranked, func(i, j int) bool {
			return ranked[i].MeanEfficiency > ranked[j].MeanEfficiency
		})

		if *jsonOut {
			enc := json.NewEncoder(stdout)
			for _, row := range ranked {
				if err := enc.Encode(row); err != nil {
					return fmt.Errorf("json: %w", err)
				}
			}
			fmt.Fprintf(stderr, "assessment: %d criteria x %d scenarios, best %s (%.2fs real)\n",
				len(summary.Criteria), summary.Scenarios, summary.Best, elapsed.Seconds())
			return nil
		}

		fmt.Fprintf(stdout, "Criteria assessment: %d criteria x %d scenarios, %d workers (%.2fs real)\n\n",
			len(summary.Criteria), summary.Scenarios, *workers, elapsed.Seconds())
		tab := trace.NewTable("criterion", "efficiency", "gain", "LB calls", "WLI", "regret")
		for _, row := range ranked {
			tab.AddRow(row.Name,
				fmt.Sprintf("%.1f%%", row.MeanEfficiency*100),
				fmt.Sprintf("%+.2f%%", row.MeanGain*100),
				fmt.Sprintf("%.1f", row.MeanLBCalls),
				fmt.Sprintf("%.3f", row.MeanWLI),
				fmt.Sprintf("%.4f", row.Regret))
		}
		tab.Render(stdout)
		fmt.Fprintf(stdout, "\nbest: %s (highest mean efficiency against the perfect-knowledge bound)\n", summary.Best)
		return nil
	}
}

// parseCriteria turns the -criteria flag into a panel: each entry is a
// registered trigger name, or plan:NAME for a model-planned schedule under
// the named planner. Empty selects the default panel.
func parseCriteria(s string) ([]ulba.Criterion, error) {
	if strings.TrimSpace(s) == "" {
		return ulba.DefaultCriteria(), nil
	}
	var out []ulba.Criterion
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if planner, ok := strings.CutPrefix(name, "plan:"); ok {
			out = append(out, ulba.Criterion{Planner: &ulba.PlannerSpec{Name: planner}})
			continue
		}
		out = append(out, ulba.Criterion{Trigger: &ulba.TriggerSpec{Name: name}})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-criteria %q names no criteria", s)
	}
	return out, nil
}
