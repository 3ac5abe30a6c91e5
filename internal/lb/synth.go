package lb

import (
	"fmt"
	"math"

	"ulba/internal/mpisim"
	"ulba/internal/partition"
	"ulba/internal/stats"
)

// SynthConfig parameterizes one synthetic scenario run: an iterative BSP
// application whose load is a pure weight function over a 1D array of work
// items, executed on the simulated cluster under a runtime trigger. It is
// the runtime counterpart of Config for workloads that are not the erosion
// application: the scenario engine of the public package binds a Workload
// to this configuration.
type SynthConfig struct {
	P          int // number of PEs
	Items      int // total work items spread over the PEs; >= P
	Iterations int // gamma

	// Weight returns the workload weight (in work units) of item j at
	// iteration i. It must be a pure function of (j, i) — independent of
	// which PE owns the item — so the application dynamics are
	// bit-identical across partitionings and LB policies, exactly like
	// the erosion application's counter-based randomness.
	Weight func(item, iter int) float64

	Cost mpisim.CostModel

	// Speeds optionally makes the cluster heterogeneous: PE r computes at
	// Cost.FLOPS*Speeds[r] FLOP/s, and LB steps cut speed-proportional
	// stripe targets instead of even ones — on a heterogeneous cluster the
	// optimum partition is deliberately non-uniform (Lastovetsky &
	// Szustak). Nil selects the homogeneous cluster; non-nil must have
	// length P with positive finite entries. A vector of all 1s is
	// bit-identical to nil.
	Speeds []float64

	// FlopPerUnit is the compute charged per weight unit per iteration.
	// The default (0 value) is 1e6 FLOP, which at the default cost model
	// makes one unit of weight cost one millisecond.
	FlopPerUnit float64

	// TriggerFactory builds the per-rank trigger state machine deciding
	// when the balancer fires. Every rank calls it once; the triggers
	// must be deterministic (LB decisions are collective). Nil selects
	// the adaptive degradation rule.
	TriggerFactory func() Trigger

	// WarmupLB is the iteration of the forced first LB call, which seeds
	// the average-LB-cost estimate adaptive triggers need. Negative
	// disables the warmup call. Default (0 value) means 1.
	WarmupLB int

	// Table optionally pre-evaluates Weight over the scenario's full
	// (item, iteration) grid (see BuildWeightTable). When present and
	// matching the scenario dimensions, RunSynth and PerfectTime read
	// table rows instead of re-invoking Weight per item — a pure lookup
	// of the identical float64s, so results are bit-for-bit unchanged.
	Table *WeightTable
}

// The synthetic runners' LB-step costs, mirroring the erosion runner's
// accounting per work item.
const (
	// itemBytes is the wire size of one migrated item's state.
	itemBytes = 4096

	// migrateFlopPerItem is the compute charged per migrated item for
	// packing (sender, half) and unpacking (receiver, full).
	migrateFlopPerItem = 1e5

	// rebuildFlopPerItem is the compute every PE pays per local item
	// after a LB step to rebuild its data structures — the fixed,
	// alpha-independent component of the LB cost C.
	rebuildFlopPerItem = 2e5

	// partitionFlopPerItem is the compute charged to the main PE per item
	// at each LB step: the centralized stripe technique scans the
	// gathered item weights.
	partitionFlopPerItem = 64
)

// Normalized returns the config with defaults applied.
func (c SynthConfig) Normalized() SynthConfig {
	if c.FlopPerUnit == 0 {
		c.FlopPerUnit = 1e6
	}
	if c.WarmupLB == 0 {
		c.WarmupLB = 1
	}
	return c
}

// Validate checks the configuration.
func (c SynthConfig) Validate() error {
	if c.P <= 0 {
		return fmt.Errorf("lb: synth P = %d must be positive", c.P)
	}
	if c.Items < c.P {
		return fmt.Errorf("lb: synth needs at least one item per PE: %d items for %d PEs", c.Items, c.P)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("lb: synth Iterations = %d must be positive", c.Iterations)
	}
	if c.Weight == nil {
		return fmt.Errorf("lb: synth Weight function is nil")
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.FlopPerUnit < 0 {
		return fmt.Errorf("lb: synth FlopPerUnit = %g must be non-negative", c.FlopPerUnit)
	}
	if c.WarmupLB >= c.Iterations {
		return fmt.Errorf("lb: synth WarmupLB = %d beyond the run of %d iterations", c.WarmupLB, c.Iterations)
	}
	if c.Speeds != nil {
		if len(c.Speeds) != c.P {
			return fmt.Errorf("lb: synth Speeds has %d entries for %d PEs", len(c.Speeds), c.P)
		}
		for r, s := range c.Speeds {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("lb: synth Speeds[%d] = %g must be positive and finite", r, s)
			}
		}
	}
	if c.Table != nil && (c.Table.Items != c.Items || c.Table.Iterations < c.Iterations) {
		return fmt.Errorf("lb: synth weight table is %dx%d, scenario needs %dx%d",
			c.Table.Items, c.Table.Iterations, c.Items, c.Iterations)
	}
	return nil
}

// SynthResult is the measured per-iteration timeline of one scenario run.
type SynthResult struct {
	TotalTime   float64   // final wall time (max virtual clock), seconds
	IterTimes   []float64 // shared per-iteration wall time (excluding LB steps)
	Usage       []float64 // average PE usage per iteration, in [0,1]
	WLI         []float64 // per-iteration weighted load imbalance (max-avg)/avg
	LBIters     []int     // iterations at which the balancer ran
	LBCosts     []float64 // measured cost of each LB step, seconds
	AvgLBCost   float64   // mean of LBCosts (0 if none)
	FinalBounds []int     // final item-range boundaries, len P+1
	ComputeTime []float64 // per-rank total compute seconds
}

// LBCount returns the number of LB invocations.
func (r SynthResult) LBCount() int { return len(r.LBIters) }

// MeanUsage returns the run-average PE usage.
func (r SynthResult) MeanUsage() float64 { return stats.Mean(r.Usage) }

// MeanWLI returns the run-average weighted load imbalance.
func (r SynthResult) MeanWLI() float64 { return stats.Mean(r.WLI) }

// denom returns the FLOP-per-second rate of rank r: the reference FLOPS
// scaled by the rank's speed. With nil Speeds it is exactly Cost.FLOPS, so
// homogeneous configs keep their historical bit patterns (x*1.0 == x would
// too, but the branch makes the contract explicit).
func (c SynthConfig) denom(r int) float64 {
	if c.Speeds == nil {
		return c.Cost.FLOPS
	}
	return c.Cost.FLOPS * c.Speeds[r]
}

// synthRankSeconds fills dts[r] with rank r's compute seconds at iteration i
// under bounds: the weight sum over the owned range in ascending item order,
// times FlopPerUnit, divided by the rank's FLOP/s rate — exactly the
// expression the engines charge in the compute phase, so the out-of-band
// recomputation reproduces the measured times bit for bit. Any rank can run
// it for all ranks because the weight function is pure.
func (c SynthConfig) synthRankSeconds(dts []float64, bounds []int, i int) {
	row := c.tableRow(i)
	for r := range dts {
		flop := 0.0
		if row != nil {
			for _, w := range row[bounds[r]:bounds[r+1]] {
				flop += w
			}
		} else {
			for j := bounds[r]; j < bounds[r+1]; j++ {
				flop += c.Weight(j, i)
			}
		}
		flop *= c.FlopPerUnit
		dts[r] = flop / c.denom(r)
	}
}

// synthTargets returns the stripe targets of one LB step: even shares on the
// homogeneous cluster, speed-proportional shares on a heterogeneous one —
// equalizing compute time rather than work.
func (c SynthConfig) synthTargets(wtot float64) []float64 {
	if c.Speeds == nil {
		return partition.EvenTargets(wtot, c.P)
	}
	return partition.ProportionalTargets(wtot, c.Speeds)
}

// wliOf returns the weighted load imbalance (max-avg)/avg of the per-rank
// compute seconds — GAMER's WLI: 0 is perfect balance, 1.0 means the
// slowest rank takes twice the average. The sum folds in ascending rank
// order so both engines produce the same bits.
func wliOf(dts []float64) float64 {
	sum, max := 0.0, 0.0
	for _, dt := range dts {
		sum += dt
		if dt > max {
			max = dt
		}
	}
	avg := sum / float64(len(dts))
	if avg == 0 {
		return 0
	}
	return (max - avg) / avg
}

// PerfectTime returns the perfect-knowledge lower bound on the scenario's
// total time: every iteration's total workload spread perfectly over the
// PEs — evenly on a homogeneous cluster, speed-proportionally on a
// heterogeneous one — with free balancing and free communication. No policy,
// reactive or anticipating, can beat it, which makes it the natural
// denominator for scenario efficiency.
func PerfectTime(cfg SynthConfig) float64 {
	cfg = cfg.Normalized()
	// The machine's aggregate FLOP/s. The homogeneous expression is kept
	// verbatim so existing results stay bit-identical.
	rate := float64(cfg.P) * cfg.Cost.FLOPS
	if cfg.Speeds != nil {
		rate = 0
		for r := range cfg.Speeds {
			rate += cfg.denom(r)
		}
	}
	total := 0.0
	for i := 0; i < cfg.Iterations; i++ {
		sum := 0.0
		if row := cfg.tableRow(i); row != nil {
			for _, w := range row {
				sum += w
			}
		} else {
			for j := 0; j < cfg.Items; j++ {
				sum += cfg.Weight(j, i)
			}
		}
		total += sum * cfg.FlopPerUnit / rate
	}
	return total
}

// RunSynth executes the synthetic scenario on cfg.P simulated PEs and
// returns the measured timeline. Runs are fully deterministic: same config,
// same result. The structure mirrors Run: a BSP iteration loop whose
// compute phase is driven by the weight function, the shared max-allreduce
// iteration clock feeding the trigger, and a centralized even re-partition
// (gather weights, cut stripes on the main PE, broadcast, migrate along the
// deterministic transfer plan) whenever the trigger fires.
//
// The synthetic rank body is entirely fixed, so RunSynth executes on the
// sequential fast engine (synth_fast.go), which advances all P virtual
// clocks through the same message schedule without spawning goroutines.
// RunSynthSim is the message-passing reference engine; the two are held
// bit-identical by differential tests.
func RunSynth(cfg SynthConfig) (SynthResult, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	return runSynthFast(cfg)
}

// RunSynthSim executes the synthetic scenario on the message-passing
// engine: one goroutine per simulated PE over tagged mailboxes. It is the
// executable specification the fast engine is tested against, and produces
// bit-identical results.
func RunSynthSim(cfg SynthConfig) (SynthResult, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	p := cfg.P

	// Out-of-band metric stores; each rank writes disjoint slots.
	iterTimes := make([]float64, cfg.Iterations)
	computeShare := make([]float64, cfg.Iterations) // filled by rank 0 from allreduce
	wliTrace := make([]float64, cfg.Iterations)     // filled by rank 0, out-of-band
	var lbIters []int
	var lbCosts []float64
	var finalBounds []int

	clocks, allStats, err := mpisim.RunCollect(p, cfg.Cost, func(proc *mpisim.Proc) error {
		rank := proc.Rank()
		if cfg.Speeds != nil {
			proc.SetSpeed(cfg.Speeds[rank])
		}

		// Initial partition: an even split by item count, the analogue
		// of one stripe per PE. Free of charge: the data starts in
		// place.
		bounds := make([]int, p+1)
		for i := range bounds {
			bounds[i] = i * cfg.Items / p
		}

		var trig Trigger
		if cfg.TriggerFactory != nil {
			trig = cfg.TriggerFactory()
		} else {
			trig = NewDegradation()
		}
		imbObs, observesWLI := trig.(ImbalanceObserver)
		dts := make([]float64, p) // scratch for the out-of-band WLI recomputation

		var lbCostAvg stats.Running
		prevMax := 0.0

		for i := 0; i < cfg.Iterations; i++ {
			// Compute phase: cost proportional to the weight of the
			// items owned at this iteration.
			flop := 0.0
			for j := bounds[rank]; j < bounds[rank+1]; j++ {
				flop += cfg.Weight(j, i)
			}
			flop *= cfg.FlopPerUnit
			proc.Compute(flop)

			// Collective bookkeeping: the compute share for the
			// usage trace, and the shared iteration clock. The
			// max-allreduce doubles as the BSP iteration barrier.
			computeSum := proc.AllreduceSum(flop / cfg.denom(rank))
			maxClock := proc.AllreduceMax(proc.Clock())
			iterTime := maxClock - prevMax
			prevMax = maxClock
			trig.Observe(iterTime)

			// The weighted load imbalance of this iteration,
			// recomputed out-of-band from the pure weight function:
			// any rank knows every rank's load at zero simulated
			// cost, so no extra collective perturbs the timeline.
			var wli float64
			if rank == 0 || observesWLI {
				cfg.synthRankSeconds(dts, bounds, i)
				wli = wliOf(dts)
			}
			if observesWLI {
				imbObs.ObserveImbalance(wli)
			}

			if rank == 0 {
				iterTimes[i] = iterTime
				computeShare[i] = computeSum
				wliTrace[i] = wli
			}

			// LB decision: identical on every rank because all the
			// inputs are shared collective results.
			threshold := math.Inf(1)
			if lbCostAvg.N() > 0 {
				threshold = lbCostAvg.Mean()
			}
			fire := i == cfg.WarmupLB || trig.ShouldFire(threshold)
			if !fire {
				continue
			}

			// ---- LB step: centralized even re-partition ----
			bounds = rebalanceSynth(proc, bounds, i, cfg)
			lbEnd := proc.AllreduceMax(proc.Clock())
			cost := lbEnd - maxClock
			lbCostAvg.Add(cost)
			prevMax = lbEnd
			trig.Reset()
			if rank == 0 {
				lbIters = append(lbIters, i)
				lbCosts = append(lbCosts, cost)
			}
		}

		if rank == 0 {
			finalBounds = bounds
		}
		return nil
	})
	if err != nil {
		return SynthResult{}, err
	}

	res := SynthResult{
		IterTimes:   iterTimes,
		WLI:         wliTrace,
		LBIters:     lbIters,
		LBCosts:     lbCosts,
		FinalBounds: finalBounds,
	}
	for _, c := range clocks {
		if c > res.TotalTime {
			res.TotalTime = c
		}
	}
	res.Usage = make([]float64, cfg.Iterations)
	for i := range res.Usage {
		if iterTimes[i] > 0 {
			res.Usage[i] = stats.Clamp(computeShare[i]/(float64(p)*iterTimes[i]), 0, 1)
		}
	}
	if len(lbCosts) > 0 {
		res.AvgLBCost = stats.Mean(lbCosts)
	}
	res.ComputeTime = make([]float64, p)
	for r, s := range allStats {
		res.ComputeTime[r] = s.ComputeTime
	}
	return res, nil
}

// rebalanceSynth runs one centralized LB step of the synthetic runner:
// every PE sends its per-item weights at iteration i to the main PE, which
// cuts new stripes to the targets (even, or speed-proportional on a
// heterogeneous cluster) over the full weight array and broadcasts
// them; then item state migrates point-to-point along the deterministic
// transfer plan and every PE rebuilds its local structures. The weights are
// globally recomputable (pure function), but the runner still pays the
// communication and compute of the centralized technique — that cost is the
// C the triggers trade off against.
func rebalanceSynth(proc *mpisim.Proc, oldBounds []int, iter int, cfg SynthConfig) []int {
	rank := proc.Rank()

	// Gather [lo, weights...] on the main PE.
	payload := make([]float64, 0, 1+oldBounds[rank+1]-oldBounds[rank])
	payload = append(payload, float64(oldBounds[rank]))
	for j := oldBounds[rank]; j < oldBounds[rank+1]; j++ {
		payload = append(payload, cfg.Weight(j, iter))
	}
	parts := proc.Gather(0, mpisim.PackFloat64s(payload))

	var boundsWire []byte
	if rank == 0 {
		itemW := make([]float64, cfg.Items)
		for _, part := range parts {
			vals := mpisim.UnpackFloat64s(part)
			lo := int(vals[0])
			copy(itemW[lo:lo+len(vals)-1], vals[1:])
		}
		targets := cfg.synthTargets(stats.Sum(itemW))
		newBounds := partition.Stripes(itemW, targets)
		newBounds = partition.EnsureMinCols(newBounds, 1)
		// The centralized partitioning technique runs on the main PE
		// over the gathered item weights.
		proc.Compute(partitionFlopPerItem * float64(cfg.Items))
		boundsWire = mpisim.PackInts(newBounds)
	}
	newBounds := mpisim.UnpackInts(proc.Bcast(0, boundsWire))

	// Migration along the shared deterministic plan: sends first (eager,
	// non-blocking), then receives in plan order. The item state is
	// virtual — weights are recomputable — so only the modeled wire size
	// and the pack/unpack compute are charged.
	plan := partition.Transfers(oldBounds, newBounds)
	for _, tr := range plan {
		if tr.From == rank {
			cnt := tr.Hi - tr.Lo
			proc.Compute(0.5 * migrateFlopPerItem * float64(cnt))
			proc.SendV(tr.To, tagMigrate, nil, cnt*itemBytes)
		}
	}
	for _, tr := range plan {
		if tr.To == rank {
			proc.Recv(tr.From, tagMigrate)
			cnt := tr.Hi - tr.Lo
			proc.Compute(migrateFlopPerItem * float64(cnt))
		}
	}
	// Every PE rebuilds its local structures over its (new) range.
	proc.Compute(rebuildFlopPerItem * float64(newBounds[rank+1]-newBounds[rank]))
	return newBounds
}
