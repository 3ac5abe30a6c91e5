// Package core implements the paper's primary contribution: the ULBA
// (Underloading Load Balancing Approach) controller of Section III.
//
// Each PE continuously monitors its workload increase rate (WIR), shares it
// through the gossip database, and, at a LB step, classifies itself as
// overloading when the z-score of its WIR within the WIR population exceeds
// a threshold (3.0 in the paper). Overloading PEs request to be underloaded
// by a fraction alpha of the perfectly balanced share; the freed workload
// is spread evenly over the other PEs (Algorithm 2, realized by
// partition.Targets). The controller also provides the runtime estimate of
// the ULBA overhead (Eq. 11) that the adaptive trigger adds to the LB cost
// (Section III-C), and an adaptive-alpha policy — the paper's announced
// future work — that shrinks alpha as the fraction of overloading PEs
// grows, following the overhead law alpha*N/(P-N) identified in Section IV.
package core

import (
	"fmt"
	"math"

	"ulba/internal/gossip"
	"ulba/internal/stats"
)

// DefaultZThreshold is the paper's overload-detection threshold: a PE is
// overloading if the z-score of its WIR exceeds 3.0. Note that a single
// outlier among P identical values has z-score sqrt(P-1), so with fewer
// than 11 PEs nothing can cross 3.0; small worlds need a lower threshold.
const DefaultZThreshold = 3.0

// Monitor estimates a PE's workload increase rate from a sliding window of
// (iteration, workload) samples by least-squares slope, the "monitoring"
// half of ULBA's monitoring-and-anticipation mechanism. The window must be
// reset after every LB step: migration changes the workload discontinuously
// and would corrupt the slope, while the WIR of interest is the
// application-intrinsic growth that persists across LB steps (principle of
// persistence).
type Monitor struct {
	iters []float64
	loads []float64
	cap   int
}

// NewMonitor creates a monitor with the given window capacity (minimum 2).
func NewMonitor(window int) *Monitor {
	if window < 2 {
		window = 2
	}
	return &Monitor{
		iters: make([]float64, 0, window),
		loads: make([]float64, 0, window),
		cap:   window,
	}
}

// Record adds one (iteration, workload) sample. A full window slides in
// place, dropping its oldest sample, so the samples stay oldest first.
func (m *Monitor) Record(iter int, workload float64) {
	if len(m.iters) == m.cap {
		copy(m.iters, m.iters[1:])
		copy(m.loads, m.loads[1:])
		m.iters = m.iters[:m.cap-1]
		m.loads = m.loads[:m.cap-1]
	}
	m.iters = append(m.iters, float64(iter))
	m.loads = append(m.loads, workload)
}

// WIR returns the current workload-increase-rate estimate in work units per
// iteration, and false when fewer than two samples are available.
func (m *Monitor) WIR() (float64, bool) {
	if len(m.iters) < 2 {
		return 0, false
	}
	fit := stats.LinearRegression(m.iters, m.loads)
	if !fit.Valid() {
		return 0, false
	}
	return fit.Slope, true
}

// Reset clears the window (call right after every LB step).
func (m *Monitor) Reset() {
	m.iters = m.iters[:0]
	m.loads = m.loads[:0]
}

// Detector classifies PEs as overloading from the WIR database.
type Detector struct {
	// ZThreshold is the z-score above which a PE is overloading.
	ZThreshold float64
	// MinKnown is the minimum number of database entries required before
	// any detection: with too few WIRs the z-score is meaningless.
	MinKnown int
}

// NewDetector returns a detector with the paper's defaults: threshold 3.0,
// and at least half the world known.
func NewDetector(worldSize int) Detector {
	minKnown := worldSize/2 + 1
	if minKnown < 2 {
		minKnown = 2
	}
	return Detector{ZThreshold: DefaultZThreshold, MinKnown: minKnown}
}

// Overloading reports whether rank's WIR is an outlier in the database
// population.
func (d Detector) Overloading(db *gossip.DB, rank int) bool {
	if db.KnownCount() < d.MinKnown {
		return false
	}
	z, ok := db.ZScoreOf(rank)
	return ok && z > d.ZThreshold
}

// CountOverloading returns how many known ranks the detector classifies as
// overloading — the controller's runtime estimate of the paper's N.
func (d Detector) CountOverloading(db *gossip.DB) int {
	if db.KnownCount() < d.MinKnown {
		return 0
	}
	wirs := db.Values()
	n := 0
	for _, e := range db.Snapshot() {
		if stats.ZScore(e.Value, wirs) > d.ZThreshold {
			n++
		}
	}
	return n
}

// AlphaPolicy decides the alpha an overloading PE requests at a LB step.
type AlphaPolicy interface {
	// Alpha returns the fraction to shed given the current estimates of
	// the world size and the number of overloading PEs.
	Alpha(p, n int) float64
}

// FixedAlpha is the paper's user-defined constant alpha (Section III-A:
// "alpha is constant and user defined for all overloading PEs").
type FixedAlpha float64

// Alpha returns the constant value regardless of estimates.
func (f FixedAlpha) Alpha(p, n int) float64 { return float64(f) }

// AdaptiveAlpha implements the future-work extension the paper motivates in
// Section IV-B: "for a given overhead, alpha can be set higher whether
// N/(P-N) is small". It chooses the largest alpha whose projected overhead
// ratio alpha*N/(P-N) stays within Budget, clamped to [0, Max].
type AdaptiveAlpha struct {
	// Budget bounds alpha*N/(P-N), the per-PE overhead fraction of
	// Eq. 11. The Fig. 3 fit (alpha ~ 0.93 at 1% overloading, ~ 0.08 at
	// 20%) corresponds to a budget of roughly 0.01-0.02.
	Budget float64
	// Max caps alpha (the paper observes diminishing returns above 0.4
	// at small P).
	Max float64
}

// DefaultAdaptiveAlpha returns the tuning used by the ablation experiments.
func DefaultAdaptiveAlpha() AdaptiveAlpha {
	return AdaptiveAlpha{Budget: 0.015, Max: 0.9}
}

// Alpha returns min(Max, Budget*(P-N)/N) for n > 0, and Max when no
// overloading estimate is available (n <= 0).
func (a AdaptiveAlpha) Alpha(p, n int) float64 {
	if n <= 0 || n >= p {
		return a.Max
	}
	v := a.Budget * float64(p-n) / float64(n)
	return stats.Clamp(v, 0, a.Max)
}

// OverheadSeconds is the runtime counterpart of Eq. 11: the extra time a
// single non-overloading PE will spend on the workload gathered from the n
// overloading PEs, given the total workload in FLOP, the per-PE speed
// omega, and the alpha the overloading PEs will request. It is the term
// added to the average LB cost in the ULBA trigger (Section III-C).
func OverheadSeconds(alpha float64, p, n int, wtotFlop, omega float64) float64 {
	if n <= 0 || n >= p || alpha <= 0 {
		return 0
	}
	return alpha * float64(n) / float64(p-n) * wtotFlop / (omega * float64(p))
}

// Controller bundles the per-PE pieces of ULBA: the WIR monitor, the gossip
// database, the overload detector, and the alpha policy. It is the object
// Algorithm 1 manipulates.
type Controller struct {
	rank     int
	size     int
	monitor  *Monitor
	db       *gossip.DB
	detector Detector
	policy   AlphaPolicy
}

// NewController creates the controller for one PE.
func NewController(rank, size int, window int, detector Detector, policy AlphaPolicy) *Controller {
	if policy == nil {
		panic("core: nil alpha policy")
	}
	return &Controller{
		rank:     rank,
		size:     size,
		monitor:  NewMonitor(window),
		db:       gossip.NewDB(rank, size),
		detector: detector,
		policy:   policy,
	}
}

// DB exposes the gossip database for dissemination steps.
func (c *Controller) DB() *gossip.DB { return c.db }

// Record folds one post-iteration workload sample into the monitor and
// refreshes this PE's database entry.
func (c *Controller) Record(iter int, workload float64) {
	c.monitor.Record(iter, workload)
	if wir, ok := c.monitor.WIR(); ok {
		c.db.Update(c.rank, wir, iter)
	}
}

// WIR returns the current local estimate (0 if not yet available).
func (c *Controller) WIR() float64 {
	wir, _ := c.monitor.WIR()
	return wir
}

// Overloading reports whether this PE currently classifies itself as
// overloading.
func (c *Controller) Overloading() bool {
	return c.detector.Overloading(c.db, c.rank)
}

// OverloadingCount estimates N from the local database.
func (c *Controller) OverloadingCount() int {
	return c.detector.CountOverloading(c.db)
}

// AlphaForLB returns the alpha this PE submits to the load balancer: the
// policy value if it detects itself overloading, 0 otherwise (Algorithm 1,
// lines 17-23).
func (c *Controller) AlphaForLB() float64 {
	if !c.Overloading() {
		return 0
	}
	a := c.policy.Alpha(c.size, c.OverloadingCount())
	if a < 0 || a > 1 || math.IsNaN(a) {
		panic(fmt.Sprintf("core: alpha policy returned invalid %g", a))
	}
	return a
}

// AfterLB resets the monitor window: post-migration workloads are
// discontinuous with the pre-LB series.
func (c *Controller) AfterLB() {
	c.monitor.Reset()
}
