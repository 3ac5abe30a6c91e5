// Package cli holds the policy-selection and experiment-driving helpers the
// ulba command and the engines' sampled requests share: configuring
// registry-built planners, triggers and workloads from flag values, the
// pinned scenario samplers, and the Fig. 3 sweep loop over the public Sweep
// engine.
package cli

import (
	"context"
	"fmt"

	"ulba"
	"ulba/internal/instance"
	"ulba/internal/simulate"
)

// ConfigurePlanner applies the flag-level knobs to a registry-built planner:
// the interval for the periodic planner, the proposal budget and seed for
// the annealing planner. Other planners pass through unchanged.
func ConfigurePlanner(pl ulba.Planner, period, annealSteps int, seed uint64) ulba.Planner {
	switch p := pl.(type) {
	case ulba.PeriodicPlanner:
		p.Every = period
		return p
	case ulba.AnnealPlanner:
		p.Steps = annealSteps
		p.Seed = seed
		return p
	default:
		return pl
	}
}

// ConfigureTrigger applies the flag-level knobs to a registry-built trigger:
// the interval for the periodic trigger, the firing threshold for the wli
// trigger (non-positive keeps the registry default). Other triggers pass
// through unchanged.
func ConfigureTrigger(t ulba.Trigger, period int, wliThreshold float64) ulba.Trigger {
	switch tr := t.(type) {
	case ulba.PeriodicTrigger:
		tr.Every = period
		return tr
	case ulba.WLITrigger:
		if wliThreshold > 0 {
			tr.Threshold = wliThreshold
		}
		return tr
	default:
		return t
	}
}

// RunFig3Sweep drives the Fig. 3 experiment through the public Sweep
// engine: for each Table II overloading-fraction bucket it samples
// instancesPerBucket instances (sequentially from one generator, matching
// the paper driver's order) and evaluates them under the given planner.
// visit is called for every instance in input order; pass nil to skip.
// The default sigma+ planner keeps the sweep on the paper's exact
// evaluation path; any other planner re-plans every instance.
func RunFig3Sweep(ctx context.Context, planner ulba.Planner, instancesPerBucket, alphaGrid int,
	seed uint64, workers int, visit func(frac float64, i int, c ulba.Comparison)) ([]simulate.Fig3Bucket, error) {

	opts := []ulba.Option{ulba.WithWorkers(workers), ulba.WithAlphaGrid(alphaGrid)}
	if planner.Name() != "sigma+" {
		opts = append(opts, ulba.WithPlanner(planner))
	}
	sweep, err := ulba.NewSweep(opts...)
	if err != nil {
		return nil, err
	}
	gen := instance.NewGenerator(seed)
	buckets := make([]simulate.Fig3Bucket, 0, len(instance.Fig3Buckets))
	for _, frac := range instance.Fig3Buckets {
		params := make([]ulba.ModelParams, instancesPerBucket)
		for i := range params {
			params[i] = gen.SampleAt(frac)
		}
		sum, comps, err := sweep.Run(ctx, params)
		if err != nil {
			return nil, fmt.Errorf("bucket %.3f: %w", frac, err)
		}
		gains := make([]float64, len(comps))
		for i, c := range comps {
			gains[i] = c.Gain
			if visit != nil {
				visit(frac, i, c)
			}
		}
		buckets = append(buckets, simulate.Fig3Bucket{
			Fraction:      frac,
			Gains:         sum.Gains,
			MeanBestAlpha: sum.MeanBestAlpha,
			RawGains:      gains,
		})
	}
	return buckets, nil
}

// SeededWorkload is the spec of the named registry workload under seed.
// The trace workload has no seed knob, so it replays its default
// recording whatever the seed.
func SeededWorkload(name string, seed uint64) *ulba.WorkloadSpec {
	spec := &ulba.WorkloadSpec{Name: name}
	if name != "trace" {
		spec.Seed = seed
	}
	return spec
}

// WarmupDisabled mirrors the experiment builders' warmup rule for CLI
// paths that drive raw run configurations: the static baseline must stay
// free of LB calls, and a schedule replay already encodes its (possibly
// absent) first step, so neither gets the forced warmup call.
func WarmupDisabled(t ulba.Trigger) bool {
	switch t.(type) {
	case ulba.NeverTrigger, ulba.ScheduleTrigger:
		return true
	default:
		return false
	}
}

// BuildAssessmentScenarios samples n assessment scenario columns from the
// seed: the same pinned SampleSynthScenarios sequence BuildScenarios draws,
// expressed as scenario specs so every assessment criterion constructs its
// own runs over one shared column set.
func BuildAssessmentScenarios(seed uint64, n int) []ulba.AssessmentScenario {
	scens := instance.NewGenerator(seed).SampleSynthScenarios(ulba.WorkloadNames(), n)
	out := make([]ulba.AssessmentScenario, len(scens))
	for i, sc := range scens {
		out[i] = ulba.AssessmentScenario{P: sc.P, Iterations: sc.Iterations,
			Workload: SeededWorkload(sc.Workload, sc.Seed)}
	}
	return out
}

// BuildScenarios samples n runtime scenarios (cycling every registered
// workload) from the seed and turns them into ready-to-run
// RuntimeExperiments under the default degradation trigger. It is the
// bridge the runtime sweep drivers (the served sample path, `ulba runtime
// -sweep`, the golden worker-invariance test) share: the whole pinned
// sampling sequence lives here, so every driver runs the exact same
// scenario set for a given seed.
func BuildScenarios(seed uint64, n int) ([]*ulba.RuntimeExperiment, []instance.SynthScenario, error) {
	scens := instance.NewGenerator(seed).SampleSynthScenarios(ulba.WorkloadNames(), n)
	exps := make([]*ulba.RuntimeExperiment, len(scens))
	for i, sc := range scens {
		w, err := SeededWorkload(sc.Workload, sc.Seed).Workload()
		if err != nil {
			return nil, nil, err
		}
		exps[i], err = ulba.NewRuntime(sc.P, ulba.WithWorkload(w),
			ulba.WithIterations(sc.Iterations), ulba.WithWorkers(1))
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %d (%s): %w", i, sc.Workload, err)
		}
	}
	return exps, scens, nil
}
