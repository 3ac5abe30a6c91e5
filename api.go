package ulba

import (
	"ulba/internal/erosion"
	"ulba/internal/instance"
	"ulba/internal/lb"
	"ulba/internal/model"
	"ulba/internal/mpisim"
	"ulba/internal/schedule"
	"ulba/internal/simulate"
)

// Analytic model (Section II, III of the paper).

// ModelParams are the application parameters of Table I. Methods provide
// the paper's equations: Wtot (Eq. 1), StdIterTime (Eq. 2), ULBAIterTime
// (Eq. 5), SigmaMinus (Eq. 8), SigmaPlus (Eq. 12), MenonTau, CostImbalance
// (Eq. 10) and CostOverhead (Eq. 11).
type ModelParams = model.Params

// Schedule is a strictly increasing list of iterations at which the load
// balancer runs.
type Schedule = schedule.Schedule

// ErrNoOverload is returned by interval computations when no PE overloads
// (m = 0 or N = 0): the optimal LB interval is unbounded.
var ErrNoOverload = model.ErrNoOverload

// StandardTotalTime evaluates the standard LB method on its Menon schedule:
// Eq. 2 in Eqs. 3-4, with LB steps every sqrt(2*C*omega/m^) iterations.
func StandardTotalTime(p ModelParams) float64 {
	return simulate.StandardTime(p)
}

// ULBATotalTime evaluates ULBA at the given alpha on its sigma+ schedule:
// Eq. 5 in Eqs. 3-4, with LB steps every sigma+ iterations.
func ULBATotalTime(p ModelParams, alpha float64) float64 {
	return simulate.ULBATimeAt(p, alpha)
}

// BestAlpha scans gridSize alphas uniformly spread over [0, 1] and returns
// the one minimizing the ULBA total time, together with that time. The grid
// always contains 0, so the result can never lose to the standard method.
func BestAlpha(p ModelParams, gridSize int) (alpha, totalTime float64) {
	return simulate.BestAlpha(p, simulate.AlphaGrid(gridSize))
}

// EvaluateSchedule returns the total parallel time of an arbitrary schedule
// under ULBA semantics (alpha = 0 recovers the standard method exactly).
func EvaluateSchedule(p ModelParams, s Schedule) float64 {
	return schedule.TotalTimeULBA(p, s)
}

// SampleInstances draws n random application instances following Table II.
func SampleInstances(seed uint64, n int) []ModelParams {
	return instance.NewGenerator(seed).SampleMany(n)
}

// Application runtime (Section IV-B).

// AppConfig describes one fluid-with-erosion application instance.
type AppConfig = erosion.Config

// CostModel fixes the virtual-time costs of the simulated cluster.
type CostModel = mpisim.CostModel

// RunConfig parameterizes one application run under a LB method.
type RunConfig = lb.Config

// RunResult is the measured outcome of one application run.
type RunResult = lb.Result

// Method selects the LB method.
type Method = lb.Method

// Methods.
const (
	// Standard is the standard LB method with the adaptive trigger of
	// Zhai et al.
	Standard = lb.Standard
	// ULBA underloads the PEs that anticipate overload.
	ULBA = lb.ULBA
)

// Runtime scenario engine (the Section IV runtime generalized beyond the
// erosion application; see workload.go and runtime.go).

// RuntimeConfig parameterizes one synthetic scenario run: the runtime
// counterpart of RunConfig, driven by a pure per-item weight function
// instead of the erosion physics. Built by NewRuntime from a Workload;
// exposed for inspection and for ModeledWorkload implementations.
type RuntimeConfig = lb.SynthConfig

// RuntimeTimeline is the measured per-iteration outcome of one scenario
// run: total wall time, iteration times, PE usage, and the LB call record.
type RuntimeTimeline = lb.SynthResult

// DefaultAppConfig returns a laptop-scale erosion instance for p PEs with
// the paper's geometry ratios.
func DefaultAppConfig(p int) AppConfig {
	return erosion.DefaultConfig(p)
}

// DefaultCostModel returns the reference cluster cost model.
func DefaultCostModel() CostModel {
	return mpisim.DefaultCostModel()
}
