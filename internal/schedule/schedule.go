// Package schedule represents load-balancing schedules over the lifetime of
// an application instance and evaluates the total parallel time of Eq. (4)
// of the paper for either the standard method (Eq. 2 in Eq. 3) or ULBA
// (Eq. 5 in Eq. 3). It also builds the schedules the paper compares:
// periodic, Menon's tau, and the paper's "LB step every sigma+" proposal.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"ulba/internal/model"
)

// Schedule is the strictly increasing list of iterations at which the load
// balancer is called. Iteration 0 is never part of a schedule: the workload
// starts balanced and the initial partitioning is free (it happens before
// the run). Each listed iteration pays the LB cost C and re-partitions the
// workload before that iteration executes.
type Schedule []int

// Validate checks that the schedule is strictly increasing and within
// (0, gamma).
func (s Schedule) Validate(gamma int) error {
	prev := 0
	for k, it := range s {
		if it <= prev {
			return fmt.Errorf("schedule: entry %d = %d not strictly increasing (previous %d)", k, it, prev)
		}
		if it >= gamma {
			return fmt.Errorf("schedule: entry %d = %d outside (0, %d)", k, it, gamma)
		}
		prev = it
	}
	return nil
}

// FromBools converts Algorithm-state form (one flag per iteration, as used by
// the simulated-annealing search) to a Schedule. Index 0 is ignored: the
// initial balance is free.
func FromBools(flags []bool) Schedule {
	var s Schedule
	for i := 1; i < len(flags); i++ {
		if flags[i] {
			s = append(s, i)
		}
	}
	return s
}

// Normalize sorts and deduplicates an arbitrary iteration list into a valid
// schedule for a gamma-iteration run.
func Normalize(iters []int, gamma int) Schedule {
	cp := append([]int(nil), iters...)
	sort.Ints(cp)
	var s Schedule
	for _, it := range cp {
		if it <= 0 || it >= gamma {
			continue
		}
		if len(s) > 0 && s[len(s)-1] == it {
			continue
		}
		s = append(s, it)
	}
	return s
}

// IterTimeFunc is the per-iteration time model plugged into Eq. (3):
// the time of the t-th iteration after a LB step at iteration lbp.
// model.Params.StdIterTime and model.Params.ULBAIterTime both satisfy it.
type IterTimeFunc func(p model.Params, lbp, t int) float64

// TotalTime evaluates Eq. (4): the sum over all LB intervals of Eq. (3),
// using iter as the per-iteration time (Eq. 2 for the standard method,
// Eq. 5 for ULBA). Each LB step in the schedule contributes the cost C.
func TotalTime(p model.Params, s Schedule, iter IterTimeFunc) float64 {
	total := 0.0
	lbp := 0
	k := 0
	for i := 0; i < p.Gamma; i++ {
		if k < len(s) && s[k] == i {
			total += p.C
			lbp = i
			k++
		}
		total += iter(p, lbp, i-lbp)
	}
	return total
}

// TotalTimeStd evaluates the schedule under the standard LB method.
func TotalTimeStd(p model.Params, s Schedule) float64 {
	return TotalTime(p, s, model.Params.StdIterTime)
}

// TotalTimeULBA evaluates the schedule under ULBA. The initial partition
// (iteration 0) is assumed to already apply the ULBA weighting, consistent
// with substituting Eq. (5) into Eq. (3) for every interval; with alpha = 0
// this is identical to the standard method.
func TotalTimeULBA(p model.Params, s Schedule) float64 {
	return TotalTime(p, s, model.Params.ULBAIterTime)
}

// Periodic returns a schedule calling the balancer every k iterations
// (at k, 2k, ... < gamma). It panics if k <= 0.
func Periodic(gamma, k int) Schedule {
	if k <= 0 {
		panic("schedule: period must be positive")
	}
	var s Schedule
	for i := k; i < gamma; i += k {
		s = append(s, i)
	}
	return s
}

// EverySigmaPlus builds the paper's proposed schedule: after a LB step at
// iteration i, the next step happens sigma+(i) iterations later (Section
// III-B: "we propose to use sigma+ as the LB steps"). With alpha = 0 this
// degenerates to Menon's tau schedule. When the model has no overloading
// PEs, the schedule is empty.
func EverySigmaPlus(p model.Params) Schedule {
	var s Schedule
	lbp := 0
	for {
		sp, err := p.SigmaPlus(lbp)
		if err != nil || math.IsInf(sp, 1) {
			return s
		}
		step := int(math.Floor(sp))
		if step < 1 {
			step = 1
		}
		next := lbp + step
		if next >= p.Gamma {
			return s
		}
		s = append(s, next)
		lbp = next
	}
}

// Menon builds the schedule of the standard method with Menon's optimal
// interval: LB steps every tau = sqrt(2*C*omega/m^) iterations. It is the
// alpha = 0 special case of EverySigmaPlus and is provided for clarity.
func Menon(p model.Params) Schedule {
	return EverySigmaPlus(p.WithAlpha(0))
}

// Count returns the number of LB calls in the schedule.
func (s Schedule) Count() int { return len(s) }

// Intervals returns the gap, in iterations, before each LB call: the first
// entry is the distance from iteration 0 to the first call, each following
// entry the distance from the previous call. Useful to inspect how a planner
// spaces its steps (a periodic plan has constant intervals; a sigma+ plan
// stretches them as the workload grows).
func (s Schedule) Intervals() []int {
	out := make([]int, len(s))
	prev := 0
	for i, it := range s {
		out[i] = it - prev
		prev = it
	}
	return out
}

// String renders the schedule compactly.
func (s Schedule) String() string {
	return fmt.Sprintf("LB@%v", []int(s))
}
