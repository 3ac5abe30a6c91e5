package ulba

import (
	"fmt"

	"ulba/internal/schedule"
	"ulba/internal/simulate"
)

// A Planner decides *when to balance* ahead of time: given the analytic
// application model of Section II, it produces the full LB schedule for a
// run. Planners are the policy axis the paper studies — Menon's reactive
// optimum versus the anticipating sigma+ rule (Eqs. 8-12) — made pluggable
// so new criteria can be compared under the same harness.
//
// Implementations must be deterministic: the same parameters must always
// produce the same schedule, so that sweeps are reproducible and
// bit-identical across worker counts.
type Planner interface {
	// Name identifies the planner, matching its registry key.
	Name() string
	// Plan builds the LB schedule for the instance. gamma > 0 overrides
	// p.Gamma as the run length; gamma <= 0 keeps p.Gamma. An instance
	// with no overloading PEs yields an empty schedule (never balance),
	// not an error: errors are reserved for invalid parameters or
	// planner configuration.
	Plan(p ModelParams, gamma int) (Schedule, error)
}

// planParams validates and applies the gamma override shared by all
// planners.
func planParams(p ModelParams, gamma int) (ModelParams, error) {
	if gamma > 0 {
		p.Gamma = gamma
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// SigmaPlusPlanner is the paper's proposal (Section III-B): after each LB
// step at iteration i, the next step happens sigma+(i) iterations later,
// where sigma+ is the largest interval for which balancing still pays off
// under ULBA (Eq. 12).
type SigmaPlusPlanner struct{}

// Name returns "sigma+".
func (SigmaPlusPlanner) Name() string { return "sigma+" }

// Plan builds the every-sigma+ schedule.
func (SigmaPlusPlanner) Plan(p ModelParams, gamma int) (Schedule, error) {
	p, err := planParams(p, gamma)
	if err != nil {
		return nil, err
	}
	return schedule.EverySigmaPlus(p), nil
}

// MenonPlanner is the standard method's schedule: LB steps every
// tau = sqrt(2*C*omega/m^) iterations, the analytic optimum of Menon et
// al. [6]. It is exactly the sigma+ plan at alpha = 0.
type MenonPlanner struct{}

// Name returns "menon".
func (MenonPlanner) Name() string { return "menon" }

// Plan builds Menon's tau schedule (ignoring the instance's alpha).
func (MenonPlanner) Plan(p ModelParams, gamma int) (Schedule, error) {
	p, err := planParams(p, gamma)
	if err != nil {
		return nil, err
	}
	return schedule.Menon(p), nil
}

// PeriodicPlanner balances every Every iterations, the classic
// fixed-interval policy the paper dismisses; kept as an ablation baseline.
type PeriodicPlanner struct {
	Every int // interval in iterations; must be positive
}

// Name returns "periodic".
func (PeriodicPlanner) Name() string { return "periodic" }

// Plan builds the every-k schedule.
func (pl PeriodicPlanner) Plan(p ModelParams, gamma int) (Schedule, error) {
	if pl.Every <= 0 {
		return nil, fmt.Errorf("ulba: periodic planner needs Every > 0, got %d", pl.Every)
	}
	p, err := planParams(p, gamma)
	if err != nil {
		return nil, err
	}
	return schedule.Periodic(p.Gamma, pl.Every), nil
}

// AnnealPlanner searches for a near-optimal schedule with simulated
// annealing over all 2^gamma LB schedules, the heuristic the paper validates
// sigma+ against (Fig. 2). It is deterministic for a fixed Seed.
type AnnealPlanner struct {
	Steps int    // annealing proposals; <= 0 selects 20000 (the Fig. 2 default)
	Seed  uint64 // RNG seed for the search
}

// Name returns "anneal".
func (AnnealPlanner) Name() string { return "anneal" }

// Plan runs the annealing search and returns the best schedule found.
func (pl AnnealPlanner) Plan(p ModelParams, gamma int) (Schedule, error) {
	p, err := planParams(p, gamma)
	if err != nil {
		return nil, err
	}
	steps := pl.Steps
	if steps <= 0 {
		steps = 20000
	}
	return simulate.AnnealSchedule(p, steps, pl.Seed), nil
}
