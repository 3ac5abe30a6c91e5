package ulba

import (
	"context"
	"fmt"
)

// The assessment engine, after Boulmier et al.'s follow-up on the optimal
// [de]centralized load-balancing sequence and the assessment of existing LB
// criteria against it (arXiv:2104.01688): every criterion under test — a
// registered trigger or planner, with its knobs — runs the same scenario
// set on the simulated cluster, and its mean efficiency is compared against
// the perfect-knowledge bound (RuntimeResult.Efficiency is already
// PerfectTime / TotalTime, the paper's metric) and against the best
// criterion of the set (the regret column). The cell grid reuses the
// RuntimeSweep machinery wholesale: an Assessment is a criteria x scenarios
// batch of RuntimeExperiments with a per-criterion aggregation on top.

// Criterion is one load-balancing criterion under assessment: exactly one
// of Trigger or Planner names the policy, with its spec knobs. Name labels
// the criterion in the summary; when empty, the policy's registry name is
// used (planner criteria prefixed "plan:", so a trigger and a planner
// sharing a registry name — e.g. menon, periodic — stay distinguishable).
type Criterion struct {
	Name    string       `json:"name,omitempty"`
	Trigger *TriggerSpec `json:"trigger,omitempty"`
	Planner *PlannerSpec `json:"planner,omitempty"`
}

// DisplayName is the label the criterion scores under.
func (c Criterion) DisplayName() string {
	switch {
	case c.Name != "":
		return c.Name
	case c.Trigger != nil:
		return c.Trigger.Name
	case c.Planner != nil:
		return "plan:" + c.Planner.Name
	default:
		return ""
	}
}

// DefaultCriteria is the standard assessment panel: every registered
// trigger at its registry defaults, except the schedule trigger (it replays
// an externally supplied plan, so it is meaningless without one). Planner
// criteria are opt-in: a planner needs an analytic model, which not every
// scenario workload provides.
func DefaultCriteria() []Criterion {
	var crits []Criterion
	for _, name := range TriggerNames() {
		if name == "schedule" {
			continue
		}
		crits = append(crits, Criterion{Trigger: &TriggerSpec{Name: name}})
	}
	return crits
}

// AssessmentScenario is one cell column: a workload scenario every
// criterion runs under identical conditions. The zero Iterations keeps the
// RuntimeExperiment default; Model is required only for planner criteria
// whose workload is not a ModeledWorkload.
type AssessmentScenario struct {
	P          int           `json:"p"`
	Iterations int           `json:"iterations,omitempty"`
	Workload   *WorkloadSpec `json:"workload,omitempty"`
	Model      *ModelParams  `json:"model,omitempty"`
	Speeds     []float64     `json:"speeds,omitempty"`
}

// Assessment scores a set of LB criteria over a shared scenario set. Build
// it with NewAssessment; the cell grid is criteria-major (cell index =
// criterion*Scenarios() + scenario), and every result surface — Run,
// Stream, StreamCells — reports cells in that indexing.
type Assessment struct {
	criteria  []Criterion
	scenarios int
	cells     []*RuntimeExperiment
	sweep     *RuntimeSweep
}

// NewAssessment builds the criteria x scenarios cell grid eagerly, so every
// invalid spec — an unknown policy name, a dead knob, a planner without a
// model — fails here, never mid-run. Each cell is a single-worker
// RuntimeExperiment; WithWorkers (the only accepted option) bounds how many
// cells run concurrently. The cells of one scenario column differ only in
// policy, so they share one materialization (weight table and perfect
// bound, built when the column's first cell runs) and one no-LB baseline
// run: per column, one table and one baseline whatever the panel size.
func NewAssessment(criteria []Criterion, scenarios []AssessmentScenario, opts ...Option) (*Assessment, error) {
	if len(criteria) == 0 {
		return nil, fmt.Errorf("ulba: assessment needs at least one criterion")
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("ulba: assessment needs at least one scenario")
	}
	var st settings
	if err := applyOptions(&st, scopeAssessment, "Assessment", opts); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(criteria))
	for i, c := range criteria {
		if (c.Trigger == nil) == (c.Planner == nil) {
			return nil, fmt.Errorf("ulba: assessment criterion %d needs exactly one of trigger or planner", i)
		}
		name := c.DisplayName()
		if seen[name] {
			return nil, fmt.Errorf("ulba: duplicate assessment criterion %q", name)
		}
		seen[name] = true
	}
	cells := make([]*RuntimeExperiment, 0, len(criteria)*len(scenarios))
	for ci, c := range criteria {
		for si, sc := range scenarios {
			exp, err := buildAssessmentCell(c, sc)
			if err != nil {
				return nil, fmt.Errorf("assessment criterion %q, scenario %d: %w", c.DisplayName(), si, err)
			}
			if ci == 0 {
				exp.noLB = &synthRun{}
			} else {
				exp.grid, exp.noLB = cells[si].grid, cells[si].noLB
			}
			cells = append(cells, exp)
		}
	}
	sweep, err := NewRuntimeSweep(WithWorkers(st.workers))
	if err != nil {
		return nil, err
	}
	return &Assessment{
		criteria:  append([]Criterion(nil), criteria...),
		scenarios: len(scenarios),
		cells:     cells,
		sweep:     sweep,
	}, nil
}

// buildAssessmentCell resolves one criterion x scenario pair into its
// RuntimeExperiment. Cells run single-worker: the Assessment's own pool is
// the concurrency knob, and per-cell results must not depend on it anyway.
func buildAssessmentCell(c Criterion, sc AssessmentScenario) (*RuntimeExperiment, error) {
	opts := []Option{WithWorkers(1)}
	if sc.Iterations != 0 {
		opts = append(opts, WithIterations(sc.Iterations))
	}
	if len(sc.Speeds) > 0 {
		opts = append(opts, WithSpeeds(sc.Speeds))
	}
	if sc.Workload != nil {
		w, err := sc.Workload.Workload()
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithWorkload(w))
	}
	if c.Trigger != nil {
		t, err := c.Trigger.Trigger()
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithTrigger(t))
	}
	if c.Planner != nil {
		pl, err := c.Planner.Planner()
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithPlanner(pl))
	}
	if sc.Model != nil {
		opts = append(opts, WithModel(*sc.Model))
	}
	return NewRuntime(sc.P, opts...)
}

// Criteria returns the assessed criteria in cell-grid order.
func (a *Assessment) Criteria() []Criterion {
	return append([]Criterion(nil), a.criteria...)
}

// Scenarios is the number of scenario columns; the cell grid every result
// surface indexes into is criteria x scenarios.
func (a *Assessment) Scenarios() int { return a.scenarios }

// Run executes every cell and returns the per-criterion scores with the
// cell-ordered results. The RuntimeSweep contract carries over: output is
// worker-count invariant and the lowest-index cell error wins.
func (a *Assessment) Run(ctx context.Context) (AssessmentSummary, []RuntimeResult, error) {
	_, results, err := a.sweep.Run(ctx, a.cells)
	if err != nil {
		return AssessmentSummary{}, nil, err
	}
	return a.Summarize(results), results, nil
}

// Stream runs every cell and delivers per-cell results in completion order
// (Index is the cell index). Delivery after cancellation is best-effort.
func (a *Assessment) Stream(ctx context.Context) <-chan RuntimeSweepResult {
	return a.sweep.Stream(ctx, a.cells)
}

// StreamCells runs exactly the listed cells — the resumable-runner
// primitive: a checkpointed job streams only its missing cells. The
// delivered Index is the position in indices, not the cell index.
func (a *Assessment) StreamCells(ctx context.Context, indices []int) <-chan RuntimeSweepResult {
	sub := make([]*RuntimeExperiment, len(indices))
	for i, idx := range indices {
		sub[i] = a.cells[idx]
	}
	return a.sweep.Stream(ctx, sub)
}

// CriterionScore is one criterion's row of the assessment: scenario means
// of the runtime figures of merit, plus the regret against the best
// criterion of the panel.
type CriterionScore struct {
	// Name is the criterion's display name.
	Name string `json:"name"`
	// MeanEfficiency averages PerfectTime/TotalTime over the scenarios —
	// the distance to the perfect-knowledge bound (1 is optimal).
	MeanEfficiency float64 `json:"mean_efficiency"`
	// MeanGain averages the relative improvement over the never-balancing
	// baseline.
	MeanGain float64 `json:"mean_gain"`
	// MeanLBCalls averages how many balancing steps the criterion spent.
	MeanLBCalls float64 `json:"mean_lb_calls"`
	// MeanWLI averages the workload-imbalance metric over the runs.
	MeanWLI float64 `json:"mean_wli"`
	// Regret is the best panel MeanEfficiency minus this criterion's.
	Regret float64 `json:"regret"`
}

// AssessmentSummary ranks the criteria of one assessment run.
type AssessmentSummary struct {
	// Scenarios is the number of scenario columns each score averages over.
	Scenarios int `json:"scenarios"`
	// Best names the criterion with the highest mean efficiency (first
	// declared wins ties).
	Best string `json:"best"`
	// Criteria holds one score per criterion, in declaration order.
	Criteria []CriterionScore `json:"criteria"`
}

// Summarize aggregates cell-ordered results (as returned by Run, or
// collected from Stream) into per-criterion scores. It is a pure function
// of the results, so a resumed job summarizing restored cells reports
// exactly what an uninterrupted run would.
func (a *Assessment) Summarize(results []RuntimeResult) AssessmentSummary {
	sum := AssessmentSummary{Scenarios: a.scenarios}
	bestEff := 0.0
	for ci, c := range a.criteria {
		score := CriterionScore{Name: c.DisplayName()}
		var eff, gain, calls, wli float64
		for si := 0; si < a.scenarios; si++ {
			r := results[ci*a.scenarios+si]
			eff += r.Efficiency()
			gain += r.Gain()
			calls += float64(r.Timeline.LBCount())
			wli += r.Timeline.MeanWLI()
		}
		n := float64(a.scenarios)
		score.MeanEfficiency = eff / n
		score.MeanGain = gain / n
		score.MeanLBCalls = calls / n
		score.MeanWLI = wli / n
		if sum.Best == "" || score.MeanEfficiency > bestEff {
			sum.Best = score.Name
			bestEff = score.MeanEfficiency
		}
		sum.Criteria = append(sum.Criteria, score)
	}
	for i := range sum.Criteria {
		sum.Criteria[i].Regret = bestEff - sum.Criteria[i].MeanEfficiency
	}
	return sum
}
