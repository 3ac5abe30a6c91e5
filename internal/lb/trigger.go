// Package lb is the load-balancing framework of the reproduction: adaptive
// triggers (the degradation-accumulation rule of Zhai et al. [7] used by
// Algorithm 1), LB-cost tracking, and the distributed runner (Run) that
// executes the erosion application over the simulated runtime under either
// the standard LB method or ULBA. The runner reads the application's physics
// from an erosion.Trace computed once per instance, so its ranks hold and
// migrate column weights, never cells.
package lb

import (
	"math"

	"ulba/internal/stats"
)

// Trigger decides when to invoke the load balancer. Implementations must be
// deterministic functions of the observed values so that every PE, feeding
// the trigger the same shared iteration times, reaches the same decision —
// LB calls are collective.
type Trigger interface {
	// Observe records the wall time of one iteration.
	Observe(iterTime float64)
	// ShouldFire reports whether the accumulated signal exceeds the
	// threshold (the average LB cost, plus the ULBA overhead estimate
	// when configured).
	ShouldFire(threshold float64) bool
	// Reset clears the state after a LB step.
	Reset()
}

// ImbalanceObserver is implemented by triggers that consume the measured
// weighted load imbalance in addition to iteration wall times. The synthetic
// runner computes WLI = (max-avg)/avg over the per-rank compute seconds
// out-of-band from the pure weight function (every rank can recompute every
// other rank's load at zero simulated cost) and feeds it right after
// Observe, once per iteration.
type ImbalanceObserver interface {
	ObserveImbalance(wli float64)
}

// WLIThreshold fires when the observed weighted load imbalance exceeds a
// fixed tolerance — the GAMER-style policy: redistribute whenever the
// weighted load imbalance (max-avg)/avg of the per-rank loads crosses a
// configured threshold. Unlike the cost-adaptive rules it ignores the
// LB-cost threshold argument entirely: the tolerance already encodes the
// trade-off, as it does in GAMER's LB_EstimateLoadImbalance.
type WLIThreshold struct {
	Threshold float64 // fire when WLI exceeds this; must be positive
	last      float64
}

// Observe ignores iteration wall times; the trigger reacts to WLI only.
func (t *WLIThreshold) Observe(float64) {}

// ObserveImbalance records the iteration's weighted load imbalance.
func (t *WLIThreshold) ObserveImbalance(wli float64) { t.last = wli }

// ShouldFire reports whether the last observed WLI exceeds the tolerance.
// The LB-cost threshold argument is ignored.
func (t *WLIThreshold) ShouldFire(float64) bool { return t.last > t.Threshold }

// Reset clears the observation after a LB step.
func (t *WLIThreshold) Reset() { t.last = 0 }

// Never is the static baseline: no LB during execution.
type Never struct{}

// Observe is a no-op.
func (Never) Observe(float64) {}

// ShouldFire always reports false.
func (Never) ShouldFire(float64) bool { return false }

// Reset is a no-op.
func (Never) Reset() {}

// Periodic fires every K observed iterations, the classic fixed-interval
// policy the paper dismisses ("this method may not adapt to the application
// requirements"); kept as an ablation baseline.
type Periodic struct {
	K     int
	count int
}

// Observe counts an iteration.
func (p *Periodic) Observe(float64) { p.count++ }

// ShouldFire reports whether K iterations have elapsed since the last reset;
// the threshold is ignored.
func (p *Periodic) ShouldFire(float64) bool { return p.K > 0 && p.count >= p.K }

// Reset restarts the interval.
func (p *Periodic) Reset() { p.count = 0 }

// MenonTau implements the trigger of Menon et al. [6], the predecessor the
// paper's related-work section builds on: assume the iteration time grows
// linearly after a LB step (principle of persistence), fit the growth rate
// m^/omega from the observed times, and fire when the projected imbalance
// cost m^*t^2/(2*omega) reaches the LB cost — i.e. at the analytic optimum
// tau = sqrt(2*C*omega/m^). Unlike the Zhai rule it reacts to the fitted
// model rather than the exact accumulated degradation, which is precisely
// the flexibility Zhai et al. added; keeping both makes the improvement
// measurable (see the trigger ablation benchmark).
type MenonTau struct {
	times []float64
}

// NewMenonTau returns a fresh Menon trigger.
func NewMenonTau() *MenonTau {
	return &MenonTau{}
}

// Observe records one iteration time.
func (m *MenonTau) Observe(t float64) {
	m.times = append(m.times, t)
}

// ShouldFire reports whether the iterations elapsed since the last reset
// reached tau = sqrt(2*threshold/slope), where slope is the fitted linear
// growth of the iteration time. With no measurable growth (balanced
// application) it never fires.
func (m *MenonTau) ShouldFire(threshold float64) bool {
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return false
	}
	if len(m.times) < 3 {
		return false
	}
	slope := stats.SlopeOverIndex(m.times)
	if slope <= 0 {
		return false
	}
	tau := math.Sqrt(2 * threshold / slope)
	return float64(len(m.times)) >= tau
}

// Reset clears the interval after a LB step.
func (m *MenonTau) Reset() {
	m.times = m.times[:0]
}

// FixedSchedule fires at a precomputed, strictly increasing list of absolute
// iterations — the runtime counterpart of a planned schedule.Schedule. An
// entry k makes the balancer run between iterations k-1 and k, matching the
// model convention that a scheduled LB step re-partitions the workload
// before iteration k executes. The threshold is ignored: the plan already
// encodes the cost trade-off.
type FixedSchedule struct {
	Iters []int // strictly increasing absolute iterations
	seen  int   // iterations observed since the start of the run
	next  int   // index of the next pending entry
}

// Observe counts one iteration; the count is never reset because the plan is
// expressed in absolute iterations.
func (f *FixedSchedule) Observe(float64) { f.seen++ }

// ShouldFire reports whether the next planned iteration has been reached.
func (f *FixedSchedule) ShouldFire(float64) bool {
	return f.next < len(f.Iters) && f.seen >= f.Iters[f.next]
}

// Reset advances past every plan entry already covered by the step that just
// ran.
func (f *FixedSchedule) Reset() {
	for f.next < len(f.Iters) && f.Iters[f.next] <= f.seen {
		f.next++
	}
}

// Degradation implements the adaptive rule of Zhai et al. [7] exactly as
// Algorithm 1 uses it: the first iteration after a LB step becomes the
// reference time; every iteration the median of the last three iteration
// times is compared against the reference and the excess accumulates; the
// balancer fires when the accumulated degradation reaches the threshold.
type Degradation struct {
	window  *stats.Window
	ref     float64
	haveRef bool
	acc     float64
}

// NewDegradation returns a fresh degradation trigger.
func NewDegradation() *Degradation {
	return &Degradation{window: stats.NewWindow(3)}
}

// Observe records one iteration time.
func (d *Degradation) Observe(t float64) {
	if !d.haveRef {
		d.ref = t
		d.haveRef = true
	}
	d.window.Push(t)
	d.acc += d.window.Median() - d.ref
}

// Value returns the accumulated degradation in seconds.
func (d *Degradation) Value() float64 { return d.acc }

// ShouldFire reports whether the degradation reached the threshold. A NaN
// or infinite threshold (no LB-cost estimate yet) never fires.
func (d *Degradation) ShouldFire(threshold float64) bool {
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return false
	}
	return d.acc >= threshold
}

// Reset clears the reference and accumulator (call right after a LB step).
func (d *Degradation) Reset() {
	d.haveRef = false
	d.acc = 0
	d.window.Reset()
}
