package ulba

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"ulba/internal/imbalance"
	"ulba/internal/stats"
	"ulba/internal/trace"
)

// A Workload defines the synthetic iterative application a runtime scenario
// executes: a 1D array of work items whose weights evolve over iterations.
// It is the scenario-diversity axis of the runtime engine — the same
// harness (triggers, planners, the simulated cluster) runs over any
// workload, so LB policies can be compared far beyond the single erosion
// application of Section IV-B.
type Workload interface {
	// Name identifies the workload, matching its registry key.
	Name() string
	// Instantiate binds the workload to p PEs: it returns the total
	// number of work items and the weight function weight(item, iter).
	// The weight function must be pure — a function of (item, iter)
	// only, independent of which PE owns the item — so the application
	// dynamics are bit-identical across partitionings and LB policies,
	// and it must return non-negative finite weights.
	Instantiate(p int) (items int, weight func(item, iter int) float64, err error)
}

// ModeledWorkload is implemented by workloads that can describe themselves
// in the analytic model of Section II (Eq. 1-3). It is what lets a Planner
// drive a runtime scenario without an explicit WithModel: the schedule is
// planned on the model the workload derives from the bound configuration,
// then replayed on the simulated cluster — the paper's plan-on-the-model,
// execute-at-runtime move.
type ModeledWorkload interface {
	Workload
	// Model expresses the workload as Table I parameters for the given
	// bound scenario configuration (PE count, items, iterations and the
	// cost model the estimate of C derives from).
	Model(cfg RuntimeConfig) (ModelParams, error)
}

// Zero-value defaults shared by the drifting generator family. The hot
// fraction in particular must stay one constant: ExponentialWorkload
// derives its hot blocks through LinearWorkload, so diverging defaults
// would silently desynchronize the two.
const (
	defaultDriftBase   = 1.0
	defaultDriftSpread = 0.2
	defaultHotFrac     = 0.125
)

// itemsFor applies the items-per-PE default shared by the generators.
func itemsFor(itemsPerPE, p int) (perPE, items int) {
	if itemsPerPE <= 0 {
		itemsPerPE = 64
	}
	return itemsPerPE, itemsPerPE * p
}

// baseWeight is the deterministic per-item base weight of the generators:
// base scaled by a +-spread uniform drawn from the item index, so PEs start
// near-balanced but not artificially identical.
func baseWeight(base, spread float64, seed uint64, item int) float64 {
	u := stats.HashUniform(seed, 0x5741, uint64(item))
	return base * (1 + spread*(2*u-1))
}

// baseWeights returns baseWeight over items [0, items) as a lookup whose
// slice is filled on first use: an instantiated weight function hashes each
// item once rather than once per (item, iteration) cell, and instantiating
// stays O(1) in the item count.
func baseWeights(base, spread float64, seed uint64, items int) func(item int) float64 {
	var once sync.Once
	var w []float64
	return func(item int) float64 {
		once.Do(func() {
			w = make([]float64, items)
			for j := range w {
				w[j] = baseWeight(base, spread, seed, j)
			}
		})
		return w[item]
	}
}

// StationaryWorkload is the no-drift scenario: per-item weights are drawn
// once and never change. A correct trigger should (after the forced warmup
// call) never balance again; a policy that keeps firing on a stationary
// load is paying C for nothing.
type StationaryWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Base       float64 // mean item weight; 0 selects 1
	Spread     float64 // +- uniform fraction around Base; 0 selects 0.5
	Seed       uint64
}

// Name returns "stationary".
func (StationaryWorkload) Name() string { return "stationary" }

// Instantiate binds the workload to p PEs.
func (w StationaryWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("stationary", p, w.Base, w.Spread); err != nil {
		return 0, nil, err
	}
	base, spread := defaultBaseSpread(w.Base, w.Spread)
	_, items := itemsFor(w.ItemsPerPE, p)
	bw := baseWeights(base, spread, w.Seed, items)
	return items, func(item, _ int) float64 { return bw(item) }, nil
}

// LinearWorkload is the drift scenario of Eq. 1-3: every item gains A work
// units per iteration, and the items of a few "hot" PE-aligned blocks
// additionally gain M per iteration — the synthetic analogue of the
// overloading PEs, with the hot blocks chosen by a seeded permutation
// ("not known in advance" by the partitioning).
type LinearWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Base       float64 // mean item weight at iteration 0; 0 selects 1
	Spread     float64 // +- uniform fraction around Base; 0 selects 0.2
	A          float64 // per-item weight growth per iteration; 0 selects 0.002
	M          float64 // extra growth per hot item per iteration; 0 selects 0.08
	HotFrac    float64 // fraction of PE blocks that are hot; 0 selects 0.125
	Seed       uint64
}

// Name returns "linear".
func (LinearWorkload) Name() string { return "linear" }

func (w LinearWorkload) normalized() LinearWorkload {
	if w.A == 0 {
		w.A = 0.002
	}
	if w.M == 0 {
		w.M = 0.08
	}
	w.Base, w.Spread, w.HotFrac = driftDefaults(w.Base, w.Spread, w.HotFrac)
	return w
}

// driftDefaults applies the shared zero-value defaults of the drifting
// generator family.
func driftDefaults(base, spread, hotFrac float64) (float64, float64, float64) {
	if base == 0 {
		base = defaultDriftBase
	}
	if spread == 0 {
		spread = defaultDriftSpread
	}
	if hotFrac == 0 {
		hotFrac = defaultHotFrac
	}
	return base, spread, hotFrac
}

// hotBlocks returns, per PE-aligned block, whether the block is hot: the
// first max(1, round(HotFrac*p)) entries of a seeded permutation of the p
// blocks.
func (w LinearWorkload) hotBlocks(p int) []bool {
	nHot := int(math.Round(w.HotFrac * float64(p)))
	if nHot < 1 {
		nHot = 1
	}
	if nHot > p {
		nHot = p
	}
	hot := make([]bool, p)
	perm := stats.NewRNG(w.Seed ^ 0x4c494e).Perm(p)
	for _, b := range perm[:nHot] {
		hot[b] = true
	}
	return hot
}

// Instantiate binds the workload to p PEs.
func (w LinearWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("linear", p, w.Base, w.Spread); err != nil {
		return 0, nil, err
	}
	if w.A < 0 || w.M < 0 || w.HotFrac < 0 || w.HotFrac > 1 {
		return 0, nil, fmt.Errorf("ulba: linear workload: A=%g, M=%g must be non-negative and HotFrac=%g in [0,1]",
			w.A, w.M, w.HotFrac)
	}
	w = w.normalized()
	perPE, items := itemsFor(w.ItemsPerPE, p)
	hot := w.hotBlocks(p)
	bw := baseWeights(w.Base, w.Spread, w.Seed, items)
	return items, func(item, iter int) float64 {
		v := bw(item) + w.A*float64(iter)
		if hot[item/perPE] {
			v += w.M * float64(iter)
		}
		return v
	}, nil
}

// Model expresses the linear drift in Table I terms: N hot PEs, a = the
// even per-PE growth, m = the extra hot-PE growth, and C estimated from the
// LB step's costs (gather latency and bytes into the main PE, the central
// partition scan, and the per-PE rebuild).
func (w LinearWorkload) Model(cfg RuntimeConfig) (ModelParams, error) {
	if _, _, err := w.Instantiate(cfg.P); err != nil {
		return ModelParams{}, err
	}
	w = w.normalized()
	cfg = cfg.Normalized()
	perPE, items := itemsFor(w.ItemsPerPE, cfg.P)
	if items != cfg.Items {
		return ModelParams{}, fmt.Errorf("ulba: linear workload models %d items, config has %d", items, cfg.Items)
	}
	hot := w.hotBlocks(cfg.P)
	n := 0
	for _, h := range hot {
		if h {
			n++
		}
	}
	w0 := 0.0
	for j := 0; j < items; j++ {
		w0 += baseWeight(w.Base, w.Spread, w.Seed, j)
	}
	mp := ModelParams{
		P:     cfg.P,
		N:     n,
		Gamma: cfg.Iterations,
		W0:    w0 * cfg.FlopPerUnit,
		A:     w.A * float64(perPE) * cfg.FlopPerUnit,
		M:     w.M * float64(perPE) * cfg.FlopPerUnit,
		Omega: cfg.Cost.FLOPS,
		C:     estimateLBCost(cfg),
	}
	mp.DeltaW = mp.A*float64(mp.P) + mp.M*float64(mp.N)
	return mp, nil
}

// The FLOPs the synthetic runners charge per item at a LB step for the main
// PE's partition scan and for every PE's rebuild: internal/lb's
// partitionFlopPerItem and rebuildFlopPerItem.
// TestEstimateLBCostMatchesSingleRankStep ties the two copies together.
const (
	partitionFlopPerItem = 64
	rebuildFlopPerItem   = 2e5
)

// estimateLBCost predicts the measured cost of one synthetic LB step in
// seconds: the linear gather into the main PE, the central partition scan,
// and the per-PE rebuild. Migration is workload-dependent and left out, so
// the estimate is a slight lower bound.
func estimateLBCost(cfg RuntimeConfig) float64 {
	perPE := float64(cfg.Items) / float64(cfg.P)
	flop := partitionFlopPerItem*float64(cfg.Items) + rebuildFlopPerItem*perPE
	comm := float64(2*cfg.P)*cfg.Cost.Latency + 8*float64(cfg.Items)*cfg.Cost.ByteTime
	return flop/cfg.Cost.FLOPS + comm
}

// ExponentialWorkload grows the hot blocks geometrically: hot items
// multiply by Growth every iteration while the rest stay put. It is the
// stress case for linear-extrapolation triggers (Menon's fit persistently
// underestimates tomorrow's imbalance).
type ExponentialWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Base       float64 // mean item weight at iteration 0; 0 selects 1
	Spread     float64 // +- uniform fraction around Base; 0 selects 0.2
	Growth     float64 // per-iteration multiplier on hot items; 0 selects 1.02
	HotFrac    float64 // fraction of PE blocks that are hot; 0 selects 0.125
	Seed       uint64
}

// Name returns "exponential".
func (ExponentialWorkload) Name() string { return "exponential" }

// Instantiate binds the workload to p PEs.
func (w ExponentialWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("exponential", p, w.Base, w.Spread); err != nil {
		return 0, nil, err
	}
	if w.Growth < 0 || w.HotFrac < 0 || w.HotFrac > 1 {
		return 0, nil, fmt.Errorf("ulba: exponential workload: Growth=%g must be non-negative and HotFrac=%g in [0,1]",
			w.Growth, w.HotFrac)
	}
	growth := w.Growth
	if growth == 0 {
		growth = 1.02
	}
	base, spread, hotFrac := driftDefaults(w.Base, w.Spread, w.HotFrac)
	perPE, items := itemsFor(w.ItemsPerPE, p)
	hot := LinearWorkload{HotFrac: hotFrac, Seed: w.Seed}.hotBlocks(p)
	bw := baseWeights(base, spread, w.Seed, items)
	return items, func(item, iter int) float64 {
		v := bw(item)
		if hot[item/perPE] {
			v *= math.Pow(growth, float64(iter))
		}
		return v
	}, nil
}

// BurstyWorkload injects square-wave load bursts: during the active phase
// of every period, one PE-aligned block — rotating deterministically from
// burst to burst — carries Amplitude extra weight per item. Load appears,
// moves, and vanishes, which is exactly what fixed-interval policies
// mis-handle and reset-after-balance trigger logic must survive.
type BurstyWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Base       float64 // mean item weight; 0 selects 1
	Amplitude  float64 // extra weight per hot item during a burst; 0 selects 4
	Period     int     // iterations per burst cycle; <= 0 selects 24
	Duty       float64 // active fraction of each period; 0 selects 0.5
	Seed       uint64
}

// Name returns "bursty".
func (BurstyWorkload) Name() string { return "bursty" }

// Instantiate binds the workload to p PEs.
func (w BurstyWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("bursty", p, w.Base, 0); err != nil {
		return 0, nil, err
	}
	if w.Amplitude < 0 || w.Duty < 0 || w.Duty > 1 {
		return 0, nil, fmt.Errorf("ulba: bursty workload: Amplitude=%g must be non-negative and Duty=%g in [0,1]",
			w.Amplitude, w.Duty)
	}
	base := w.Base
	if base == 0 {
		base = 1
	}
	amp := w.Amplitude
	if amp == 0 {
		amp = 4
	}
	period := w.Period
	if period <= 0 {
		period = 24
	}
	duty := w.Duty
	if duty == 0 {
		duty = 0.5
	}
	active := int(duty * float64(period))
	if active < 1 {
		active = 1
	}
	perPE, items := itemsFor(w.ItemsPerPE, p)
	bw := baseWeights(base, 0.2, w.Seed, items)
	seed := w.Seed
	return items, func(item, iter int) float64 {
		v := bw(item)
		burst := iter / period
		if iter%period < active {
			hotBlock := int(stats.Mix64(seed^0x4255^uint64(burst)) % uint64(p))
			if item/perPE == hotBlock {
				v += amp
			}
		}
		return v
	}, nil
}

// OutlierWorkload models a heavy-tailed workload-increase rate: every item,
// at every iteration, has a small probability of receiving a truncated-
// Pareto spike that decays linearly over Window iterations. Most iterations
// are quiet; rare items briefly dominate the iteration time — the regime
// where z-score outlier detection (and trigger robustness against it)
// matters.
type OutlierWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Base       float64 // mean item weight; 0 selects 1
	Prob       float64 // per-item per-iteration spike probability; 0 selects 0.02
	Scale      float64 // spike scale; 0 selects 2
	Tail       float64 // Pareto tail index (smaller = heavier); 0 selects 1.5
	MaxSpike   float64 // truncation of a single spike; 0 selects 50
	Window     int     // linear-decay length of a spike; <= 0 selects 16
	Seed       uint64
}

// Name returns "outlier".
func (OutlierWorkload) Name() string { return "outlier" }

// Instantiate binds the workload to p PEs.
func (w OutlierWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("outlier", p, w.Base, 0); err != nil {
		return 0, nil, err
	}
	if w.Prob < 0 || w.Prob > 1 || w.Scale < 0 || w.Tail < 0 || w.MaxSpike < 0 {
		return 0, nil, fmt.Errorf("ulba: outlier workload: Prob=%g in [0,1], Scale=%g, Tail=%g, MaxSpike=%g non-negative",
			w.Prob, w.Scale, w.Tail, w.MaxSpike)
	}
	base, prob, scale, tail, maxSpike, window := w.Base, w.Prob, w.Scale, w.Tail, w.MaxSpike, w.Window
	if base == 0 {
		base = 1
	}
	if prob == 0 {
		prob = 0.02
	}
	if scale == 0 {
		scale = 2
	}
	if tail == 0 {
		tail = 1.5
	}
	if maxSpike == 0 {
		maxSpike = 50
	}
	if window <= 0 {
		window = 16
	}
	_, items := itemsFor(w.ItemsPerPE, p)
	bw := baseWeights(base, 0.2, w.Seed, items)
	seed := w.Seed
	spike := func(item, iter int) float64 {
		if stats.HashUniform(seed, 1, uint64(item), uint64(iter)) >= prob {
			return 0
		}
		u := stats.HashUniform(seed, 2, uint64(item), uint64(iter))
		s := scale * (math.Pow(1-u, -1/tail) - 1)
		if s > maxSpike {
			s = maxSpike
		}
		return s
	}
	return items, func(item, iter int) float64 {
		v := bw(item)
		lo := iter - window + 1
		if lo < 0 {
			lo = 0
		}
		for k := lo; k <= iter; k++ {
			if s := spike(item, k); s > 0 {
				v += s * float64(window-(iter-k)) / float64(window)
			}
		}
		return v
	}, nil
}

// MiniFEWorkload reproduces the box-decomposition skew of miniFE's problem
// setup: an Nx*Ny*Nz hexahedral grid is split over p near-cubic blocks with
// integer ceil/floor widths, so whenever a block count does not divide its
// grid dimension the blocks own different row counts — the rows-per-proc
// imbalance miniFE's imbalance.hpp reports as "(min/max vs avg)%". Every
// item of a PE block carries weight proportional to the block's row count,
// normalized so the mean item weight is Base; the load is stationary, so a
// correct trigger balances exactly once and a policy that keeps firing is
// paying C for nothing.
type MiniFEWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Nx, Ny, Nz int     // global grid dimensions; <= 0 selects 61 each
	Base       float64 // mean item weight; 0 selects 1
	Seed       uint64  // permutes the block-to-PE assignment
}

// Name returns "minife".
func (MiniFEWorkload) Name() string { return "minife" }

func (w MiniFEWorkload) dims() (nx, ny, nz int) {
	nx, ny, nz = w.Nx, w.Ny, w.Nz
	if nx <= 0 {
		nx = 61
	}
	if ny <= 0 {
		ny = 61
	}
	if nz <= 0 {
		nz = 61
	}
	return nx, ny, nz
}

// Instantiate binds the workload to p PEs.
func (w MiniFEWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("minife", p, w.Base, 0); err != nil {
		return 0, nil, err
	}
	nx, ny, nz := w.dims()
	px, py, pz := imbalance.BoxFactors(p)
	if nx < px || ny < py || nz < pz {
		return 0, nil, fmt.Errorf("ulba: minife workload: grid %dx%dx%d too small for the %dx%dx%d box decomposition of %d PEs",
			nx, ny, nz, px, py, pz, p)
	}
	base := w.Base
	if base == 0 {
		base = 1
	}
	blockRows := imbalance.BoxRows(nx, ny, nz, px, py, pz)
	// Per-item weight of a block: the block's share of the grid, scaled so
	// the mean item weight across the machine is Base.
	scale := base * float64(p) / float64(nx*ny*nz)
	blockW := make([]float64, p)
	perm := stats.NewRNG(w.Seed ^ 0x6d696e69).Perm(p)
	for i, b := range perm {
		blockW[i] = float64(blockRows[b]) * scale
	}
	perPE, items := itemsFor(w.ItemsPerPE, p)
	return items, func(item, _ int) float64 {
		return blockW[item/perPE]
	}, nil
}

// Model expresses the stationary box skew in Table I terms; see
// stationaryModel for why every planner yields the empty schedule here.
func (w MiniFEWorkload) Model(cfg RuntimeConfig) (ModelParams, error) {
	return stationaryModel(w, cfg)
}

// AMRWorkload models a GAMER-style adaptive-mesh-refinement load: every
// item is a patch at a refinement level in [0, Levels), a patch at level l
// updates 2^l times as often as a root patch (GAMER's NUpdateLv weighting),
// and the refinement front — the region of deepest refinement — drifts
// across the domain at Drift domain-fractions per iteration, dragging the
// expensive patches from PE block to PE block. The per-rank imbalance this
// produces is exactly the weighted load imbalance WLI = (max-avg)/avg that
// GAMER's LB_EstimateLoadImbalance measures; pair the workload with the
// "wli" trigger for the exemplar's redistribute-on-tolerance policy.
type AMRWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Levels     int     // refinement levels; <= 0 selects 4, max 16
	Base       float64 // weight of a level-0 patch; 0 selects 1
	Spread     float64 // +- uniform fraction around Base; 0 selects 0.2
	Drift      float64 // front movement in domain fractions per iteration; 0 selects 0.004
	Seed       uint64
}

// Name returns "amr".
func (AMRWorkload) Name() string { return "amr" }

// Instantiate binds the workload to p PEs.
func (w AMRWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("amr", p, w.Base, w.Spread); err != nil {
		return 0, nil, err
	}
	if w.Levels < 0 || w.Levels > 16 {
		return 0, nil, fmt.Errorf("ulba: amr workload: Levels = %d out of [1, 16]", w.Levels)
	}
	if w.Drift < 0 || w.Drift > 1 {
		return 0, nil, fmt.Errorf("ulba: amr workload: Drift = %g out of [0, 1]", w.Drift)
	}
	levels := w.Levels
	if levels == 0 {
		levels = 4
	}
	drift := w.Drift
	if drift == 0 {
		drift = 0.004
	}
	base, spread := w.Base, w.Spread
	if base == 0 {
		base = 1
	}
	if spread == 0 {
		spread = 0.2
	}
	_, items := itemsFor(w.ItemsPerPE, p)
	bw := baseWeights(base, spread, w.Seed, items)
	center0 := stats.HashUniform(w.Seed, 0x414d52)
	return items, func(item, iter int) float64 {
		pos := (float64(item) + 0.5) / float64(items)
		center := center0 + drift*float64(iter)
		center -= math.Floor(center)
		level := imbalance.FrontLevel(pos, center, levels)
		return bw(item) * imbalance.LevelWeight(level)
	}, nil
}

// Model expresses the AMR load in Table I terms; see stationaryModel — the
// analytic model describes imbalance accruing linearly on top of a balanced
// partition, so a *moving* refinement front is invisible to it and planners
// yield the empty schedule. The reactive triggers are the policies that
// engage this workload.
func (w AMRWorkload) Model(cfg RuntimeConfig) (ModelParams, error) {
	return stationaryModel(w, cfg)
}

// TargetImbalanceWorkload reproduces the cluster-dlb-benchmarks synthetic
// generator: per-PE-block work is drawn at random but constrained to hit an
// exact imbalance — the heaviest block carries Target times the average
// (see imbalance.TargetPartition). Every Period iterations the partition is
// redrawn with a fresh seed, so the overloaded block jumps around the
// machine the way the benchmark's slow rank moves between runs. Reactive
// policies must re-detect the hot spot after every jump; the imbalance
// magnitude itself is exactly dialed in, which makes the workload the
// natural calibration input for trigger thresholds.
type TargetImbalanceWorkload struct {
	ItemsPerPE int     // items per PE; <= 0 selects 64
	Target     float64 // block imbalance max/avg; 0 selects 1.5, must be in [1, p]
	Period     int     // iterations between redraws; <= 0 selects 32
	Base       float64 // mean item weight; 0 selects 1
	Seed       uint64
}

// Name returns "target".
func (TargetImbalanceWorkload) Name() string { return "target" }

// Instantiate binds the workload to p PEs.
func (w TargetImbalanceWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if err := checkPositive("target", p, w.Base, 0); err != nil {
		return 0, nil, err
	}
	target := w.Target
	if target == 0 {
		target = 1.5
	}
	if target > float64(p) {
		return 0, nil, fmt.Errorf("ulba: target workload: imbalance %g not reachable on %d PEs (max/avg is at most p)",
			target, p)
	}
	base := w.Base
	if base == 0 {
		base = 1
	}
	period := w.Period
	if period <= 0 {
		period = 32
	}
	// Probe the generator once so invalid targets fail here, not mid-run.
	if _, err := imbalance.TargetPartition(p, base, target, w.Seed); err != nil {
		return 0, nil, fmt.Errorf("ulba: target workload: %w", err)
	}
	perPE, items := itemsFor(w.ItemsPerPE, p)
	seed := w.Seed
	// Draws are memoized per redraw index: the partition is a pure
	// function of (seed, draw), so concurrent ranks computing the same
	// draw race only on identical values and the cache just avoids
	// re-running the generator per item.
	draws := &targetDrawCache{draws: map[int][]float64{}}
	return items, func(item, iter int) float64 {
		return draws.blockWeights(iter/period, p, base, target, seed)[item/perPE]
	}, nil
}

// Model expresses the target-imbalance draws in Table I terms; see
// stationaryModel — a standing (re-drawn) skew has no linear drift for the
// model to anticipate, so planners yield the empty schedule.
func (w TargetImbalanceWorkload) Model(cfg RuntimeConfig) (ModelParams, error) {
	return stationaryModel(w, cfg)
}

// targetDrawCache memoizes the per-block weights of each redraw of a
// TargetImbalanceWorkload. Values are deterministic in (seed, draw), so the
// cache is transparent; the mutex only serializes map access from
// concurrently simulated ranks.
type targetDrawCache struct {
	mu    sync.Mutex
	draws map[int][]float64
}

func (c *targetDrawCache) blockWeights(draw, p int, base, target float64, seed uint64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bw, ok := c.draws[draw]; ok {
		return bw
	}
	drawSeed := stats.Mix64(seed ^ 0x74677462616c ^ uint64(draw)*0x9e3779b97f4a7c15)
	parts, err := imbalance.TargetPartition(p, base, target, drawSeed)
	if err != nil {
		// Unreachable: Instantiate validated the arguments.
		panic(err)
	}
	// The generator pins the worst block to the last slot; a per-draw
	// permutation moves the hot spot around the machine.
	bw := make([]float64, p)
	perm := stats.NewRNG(drawSeed ^ 0x7065726d).Perm(p)
	for i, b := range perm {
		bw[i] = parts[b]
	}
	c.draws[draw] = bw
	return bw
}

// stationaryModel expresses a workload without modeled drift in Table I
// terms: the iteration-0 total workload, no overloading PEs, zero growth.
// The analytic model of the paper describes imbalance *accruing* from
// linear drift on top of a balanced partition; a standing skew (miniFE
// boxes, target-imbalance draws) or a moving refinement front (AMR) is
// invisible to it, so every planner yields the empty schedule — there is
// nothing for anticipation to anticipate, and the reactive triggers
// (degradation, menon, wli) are the policies that engage these workloads.
func stationaryModel(w Workload, cfg RuntimeConfig) (ModelParams, error) {
	items, weight, err := w.Instantiate(cfg.P)
	if err != nil {
		return ModelParams{}, err
	}
	cfg = cfg.Normalized()
	if items != cfg.Items {
		return ModelParams{}, fmt.Errorf("ulba: workload %q models %d items, config has %d", w.Name(), items, cfg.Items)
	}
	w0 := 0.0
	for j := 0; j < items; j++ {
		w0 += weight(j, 0)
	}
	return ModelParams{
		P:     cfg.P,
		N:     0,
		Gamma: cfg.Iterations,
		W0:    w0 * cfg.FlopPerUnit,
		Omega: cfg.Cost.FLOPS,
		C:     estimateLBCost(cfg),
	}, nil
}

// TraceWorkload replays a recorded weight matrix: row i holds the per-item
// weights of iteration i. Iterations beyond the trace clamp to the last
// row. It is the bridge from measured applications to the scenario engine:
// record per-item (or per-PE) loads once, then evaluate every Trigger x
// Planner pair against the exact same history.
type TraceWorkload struct {
	Rows [][]float64 // per-iteration item weights; all rows equal length
}

// Name returns "trace".
func (TraceWorkload) Name() string { return "trace" }

// Instantiate binds the trace to p PEs: the item count is the trace width,
// which must cover at least one item per PE.
func (w TraceWorkload) Instantiate(p int) (int, func(int, int) float64, error) {
	if p <= 0 {
		return 0, nil, fmt.Errorf("ulba: trace workload needs a positive PE count, got %d", p)
	}
	if len(w.Rows) == 0 || len(w.Rows[0]) == 0 {
		return 0, nil, fmt.Errorf("ulba: trace workload has no data; load one with LoadTraceWorkload")
	}
	items := len(w.Rows[0])
	for i, row := range w.Rows {
		if len(row) != items {
			return 0, nil, fmt.Errorf("ulba: trace row %d has %d items, want %d", i, len(row), items)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, nil, fmt.Errorf("ulba: trace weight [%d][%d] = %g must be non-negative and finite", i, j, v)
			}
		}
	}
	if items < p {
		return 0, nil, fmt.Errorf("ulba: trace has %d items, fewer than %d PEs", items, p)
	}
	rows := w.Rows
	return items, func(item, iter int) float64 {
		if iter >= len(rows) {
			iter = len(rows) - 1
		}
		return rows[iter][item]
	}, nil
}

// LoadTraceWorkload parses a CSV weight matrix (one row per iteration, one
// column per item, optional header) into a TraceWorkload.
func LoadTraceWorkload(r io.Reader) (TraceWorkload, error) {
	_, rows, err := trace.ParseCSVMatrix(r)
	if err != nil {
		return TraceWorkload{}, fmt.Errorf("ulba: %w", err)
	}
	return TraceWorkload{Rows: rows}, nil
}

// demoTraceCSV is a small checked-in weight matrix (a load wave sweeping
// across 16 items over 48 iterations, plus a ramp on one item) that backs
// the "trace" registry entry, so the replay path is selectable by name
// without an external file.
//
//go:embed testdata/demo_trace.csv
var demoTraceCSV []byte

// DemoTraceWorkload returns the built-in demonstration trace (the "trace"
// registry entry). Real studies load their own recording with
// LoadTraceWorkload or construct TraceWorkload directly.
func DemoTraceWorkload() TraceWorkload {
	w, err := LoadTraceWorkload(bytes.NewReader(demoTraceCSV))
	if err != nil {
		panic(err) // unreachable: the demo trace is checked in and tested
	}
	return w
}

func checkPositive(name string, p int, base, spread float64) error {
	if p <= 0 {
		return fmt.Errorf("ulba: %s workload needs a positive PE count, got %d", name, p)
	}
	if base < 0 {
		return fmt.Errorf("ulba: %s workload: Base = %g must be non-negative", name, base)
	}
	if spread < 0 || spread > 1 {
		return fmt.Errorf("ulba: %s workload: Spread = %g out of [0,1]", name, spread)
	}
	return nil
}

func defaultBaseSpread(base, spread float64) (float64, float64) {
	if base == 0 {
		base = 1
	}
	if spread == 0 {
		spread = 0.5
	}
	return base, spread
}

// WorkloadFactory constructs a workload with its default configuration.
type WorkloadFactory func() Workload

var (
	workloadMu  sync.RWMutex
	workloadReg = map[string]WorkloadFactory{}
)

// RegisterWorkload makes a workload selectable by name, e.g. from the
// -workload flag of the CLIs. It errors on the empty name, a nil factory,
// or a duplicate registration.
func RegisterWorkload(name string, f WorkloadFactory) error {
	if name == "" {
		return fmt.Errorf("ulba: workload name must not be empty")
	}
	if f == nil {
		return fmt.Errorf("ulba: workload %q: nil factory", name)
	}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if _, dup := workloadReg[name]; dup {
		return fmt.Errorf("ulba: workload %q already registered", name)
	}
	workloadReg[name] = f
	return nil
}

// NewWorkload constructs the registered workload with the given name.
func NewWorkload(name string) (Workload, error) {
	workloadMu.RLock()
	f, ok := workloadReg[name]
	workloadMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ulba: unknown workload %q (registered: %v)", name, WorkloadNames())
	}
	return f(), nil
}

// WorkloadNames lists the registered workloads in sorted order. The slice
// is a fresh copy: mutating it cannot corrupt the registry.
func WorkloadNames() []string {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	names := make([]string, 0, len(workloadReg))
	for n := range workloadReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustRegisterWorkload(name string, f WorkloadFactory) {
	if err := RegisterWorkload(name, f); err != nil {
		panic(err)
	}
}

func init() {
	mustRegisterWorkload("stationary", func() Workload { return StationaryWorkload{} })
	mustRegisterWorkload("linear", func() Workload { return LinearWorkload{} })
	mustRegisterWorkload("exponential", func() Workload { return ExponentialWorkload{} })
	mustRegisterWorkload("bursty", func() Workload { return BurstyWorkload{} })
	mustRegisterWorkload("outlier", func() Workload { return OutlierWorkload{} })
	mustRegisterWorkload("trace", func() Workload { return DemoTraceWorkload() })
	mustRegisterWorkload("minife", func() Workload { return MiniFEWorkload{} })
	mustRegisterWorkload("amr", func() Workload { return AMRWorkload{} })
	mustRegisterWorkload("target", func() Workload { return TargetImbalanceWorkload{} })
}
