package lb

import (
	"fmt"
	"math"

	"ulba/internal/core"
	"ulba/internal/erosion"
	"ulba/internal/gossip"
	"ulba/internal/mpisim"
	"ulba/internal/partition"
	"ulba/internal/stats"
)

// Method selects the load-balancing method under evaluation.
type Method int

// Methods.
const (
	// Standard is the standard LB method with the adaptive trigger of
	// Zhai et al. [7]: even re-distribution whenever the accumulated
	// degradation exceeds the average LB cost.
	Standard Method = iota
	// ULBA additionally underloads the PEs that detect themselves
	// overloading (z-score of WIR above the threshold), per Algorithms
	// 1 and 2.
	ULBA
)

func (m Method) String() string {
	switch m {
	case Standard:
		return "standard"
	case ULBA:
		return "ulba"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config parameterizes one application run.
type Config struct {
	App        erosion.Config // the application instance; App.P = number of PEs
	Iterations int            // gamma
	Cost       mpisim.CostModel

	Method        Method
	Alpha         float64 // fixed alpha for ULBA (paper: 0.4)
	AdaptiveAlpha bool    // use the adaptive-alpha extension instead of the fixed value

	ZThreshold float64 // overload detection threshold (default 3.0)
	WIRWindow  int     // WIR regression window (default 8)

	// TriggerFactory, when non-nil, decides when to balance: every rank
	// calls it once to obtain a fresh trigger state machine. Nil means
	// the paper's adaptive degradation rule (NewDegradation). The factory
	// must return deterministic triggers (LB decisions are collective).
	TriggerFactory func() Trigger

	// WarmupLB is the iteration of the forced first LB call, which
	// seeds the average-LB-cost estimate the adaptive trigger needs.
	// Negative disables the warmup call. Default (0 value) means 1.
	WarmupLB int

	// IncludeOverhead adds the Eq. 11 overhead estimate to the trigger
	// threshold for ULBA, per Section III-C. It has no effect on the
	// standard method (the estimate is zero when no PE requests alpha).
	IncludeOverhead bool

	// UseRCB switches the partitioner to 1D recursive bisection (even
	// split only; ablation of the stripe prefix-sum partitioner).
	// Incompatible with ULBA.
	UseRCB bool

	// PartitionFlopPerCol is the compute charged to the main PE per
	// domain column at each LB step: the centralized stripe technique
	// ("the stripe associated to each PE is computed on a single PE")
	// scans the gathered column weights. The default (0 value) is 64
	// FLOP per column.
	PartitionFlopPerCol float64

	// MigrateFlopPerCell is the compute charged per migrated cell for
	// packing (sender) and unpacking (receiver) of the cell's state
	// during migration. Together with CellBytes it makes part of the LB
	// cost grow with the amount of workload actually moved. The default
	// (0 value) is 64 FLOP per cell, which together with the default
	// CellBytes keeps the cost of moving one cell near one iteration of
	// that cell's compute, as in real mesh codes.
	MigrateFlopPerCell float64

	// RebuildFlopPerCell is the compute every PE pays per local cell
	// after a LB step to rebuild its mesh data structures (reindexing,
	// ghost-layer registration, solver state). It is the fixed,
	// alpha-independent component of the LB cost C — the paper's model
	// treats C as a per-call constant — and in this code base it mirrors
	// work Domain.Rebuild genuinely performs. The default (0 value) is
	// 256 FLOP per cell.
	RebuildFlopPerCell float64

	// OSNoise injects up to this many seconds of uniformly random
	// system noise into every PE at every iteration (deterministic per
	// rank and iteration), modeling the "systemic characteristics" the
	// paper lists among the sources of load imbalance. Zero disables it.
	// All LB decisions remain collective because they derive from
	// allreduced quantities, so noisy runs stay deadlock-free; the noise
	// shows up as lost PE usage and, if large, as spurious trigger
	// firings — which is the point of injecting it.
	OSNoise float64
}

// Normalized returns the config with defaults applied.
func (c Config) Normalized() Config {
	if c.ZThreshold == 0 {
		c.ZThreshold = core.DefaultZThreshold
	}
	if c.WIRWindow == 0 {
		c.WIRWindow = 8
	}
	if c.WarmupLB == 0 {
		c.WarmupLB = 1
	}
	if c.PartitionFlopPerCol == 0 {
		c.PartitionFlopPerCol = 64
	}
	if c.MigrateFlopPerCell == 0 {
		c.MigrateFlopPerCell = 64
	}
	if c.RebuildFlopPerCell == 0 {
		c.RebuildFlopPerCell = 256
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.App.Validate(); err != nil {
		return err
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("lb: Iterations = %d must be positive", c.Iterations)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("lb: Alpha = %g out of [0,1]", c.Alpha)
	}
	if c.Method != Standard && c.Method != ULBA {
		return fmt.Errorf("lb: unknown method %d", c.Method)
	}
	if c.UseRCB && c.Method == ULBA {
		return fmt.Errorf("lb: recursive bisection cannot honor ULBA weights; use the stripe partitioner")
	}
	if c.WarmupLB >= c.Iterations {
		return fmt.Errorf("lb: WarmupLB = %d beyond the run of %d iterations", c.WarmupLB, c.Iterations)
	}
	if c.PartitionFlopPerCol < 0 {
		return fmt.Errorf("lb: PartitionFlopPerCol = %g must be non-negative", c.PartitionFlopPerCol)
	}
	if c.MigrateFlopPerCell < 0 {
		return fmt.Errorf("lb: MigrateFlopPerCell = %g must be non-negative", c.MigrateFlopPerCell)
	}
	if c.RebuildFlopPerCell < 0 {
		return fmt.Errorf("lb: RebuildFlopPerCell = %g must be non-negative", c.RebuildFlopPerCell)
	}
	if c.OSNoise < 0 {
		return fmt.Errorf("lb: OSNoise = %g must be non-negative", c.OSNoise)
	}
	return nil
}

// Result is everything an experiment needs from one run.
type Result struct {
	TotalTime     float64   // final wall time (max virtual clock), seconds
	IterTimes     []float64 // shared per-iteration wall time (excluding LB steps)
	Usage         []float64 // average PE usage per iteration, in [0,1]
	LBIters       []int     // iterations at which the balancer ran
	LBCosts       []float64 // measured cost of each LB step, seconds
	LBOverloading []int     // per LB step: how many PEs submitted alpha > 0
	AvgLBCost     float64   // mean of LBCosts (0 if none)
	Eroded        int       // total rock cells eroded
	FinalWorkload float64   // total fluid weight at the end
	FinalBounds   []int     // final stripe boundaries
	ComputeTime   []float64 // per-rank total compute seconds
}

// LBCount returns the number of LB invocations.
func (r Result) LBCount() int { return len(r.LBIters) }

// MeanUsage returns the run-average PE usage.
func (r Result) MeanUsage() float64 { return stats.Mean(r.Usage) }

// Application message tags (below the collective tag space).
const (
	tagHaloToLeft = iota + 1
	tagHaloToRight
	tagGossip
	tagMigrate
)

// Run executes the erosion application on cfg.App.P simulated PEs under the
// configured method and returns the measured result. Runs are fully
// deterministic: same config, same result.
func Run(cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	app := cfg.App
	p := app.P
	flops := cfg.Cost.FLOPS

	// Out-of-band metric stores; each rank writes disjoint slots.
	iterTimes := make([]float64, cfg.Iterations)
	computeShare := make([]float64, cfg.Iterations) // filled by rank 0 from allreduce
	var lbIters []int
	var lbCosts []float64
	var lbOverloading []int
	var finalBounds []int
	var erodedTotal int
	var finalWorkload float64
	erodedPerRank := make([]int, p)

	clocks, allStats, err := mpisim.RunCollectPooled(p, cfg.Cost, func(proc *mpisim.Proc) error {
		rank := proc.Rank()

		// Initial partition: one stripe (and one rock) per PE, the
		// paper's initial condition. Free of charge: the data starts
		// in place.
		bounds := make([]int, p+1)
		for i := range bounds {
			bounds[i] = i * app.StripeWidth
		}
		dom := erosion.NewDomain(app, bounds[rank], bounds[rank+1])

		det := core.NewDetector(p)
		det.ZThreshold = cfg.ZThreshold
		var policy core.AlphaPolicy = core.FixedAlpha(cfg.Alpha)
		if cfg.AdaptiveAlpha {
			policy = core.DefaultAdaptiveAlpha()
		}
		ctrl := core.NewController(rank, p, cfg.WIRWindow, det, policy)

		var trig Trigger
		if cfg.TriggerFactory != nil {
			trig = cfg.TriggerFactory()
		} else {
			trig = NewDegradation()
		}

		var lbCostAvg stats.Running
		prevMax := 0.0

		// Per-rank scratch reused across all iterations: halo cell
		// columns, the 3-element allreduce payload, and the gossip
		// dissemination buffers. The steady-state loop allocates
		// nothing on the wire paths.
		var haloLeft, haloRight []erosion.Cell
		var red [3]float64
		var gs gossip.Scratch

		for i := 0; i < cfg.Iterations; i++ {
			// Halo exchange (state after iteration i-1). Buffered
			// sends cannot deadlock. One column of cell state goes
			// over the wire in each direction, encoded straight into
			// a pooled buffer whose ownership transfers with the send.
			haloBytes := app.Height * app.WireBytesPerCell()
			if rank > 0 {
				proc.SendOwnedV(rank-1, tagHaloToLeft,
					dom.AppendBoundary(proc.AcquireBuf(), true), haloBytes)
			}
			if rank < p-1 {
				proc.SendOwnedV(rank+1, tagHaloToRight,
					dom.AppendBoundary(proc.AcquireBuf(), false), haloBytes)
			}
			var left, right []erosion.Cell
			if rank < p-1 {
				wire := proc.Recv(rank+1, tagHaloToLeft)
				haloRight = erosion.UnpackHaloInto(haloRight[:0], wire)
				proc.ReleaseBuf(wire)
				if len(haloRight) > 0 {
					right = haloRight
				}
			}
			if rank > 0 {
				wire := proc.Recv(rank-1, tagHaloToRight)
				haloLeft = erosion.UnpackHaloInto(haloLeft[:0], wire)
				proc.ReleaseBuf(wire)
				if len(haloLeft) > 0 {
					left = haloLeft
				}
			}

			// The compute phase of the iteration: cost proportional
			// to the fluid workload owned, plus injected system
			// noise if configured.
			flop := dom.Flop()
			proc.Compute(flop)
			if cfg.OSNoise > 0 {
				proc.Elapse(cfg.OSNoise * stats.HashUniform(app.Seed^0x05, uint64(i), uint64(rank)))
			}
			erodedPerRank[rank] += dom.Step(i, left, right)

			// Monitoring: WIR update and one gossip dissemination
			// step per iteration (Section III-C).
			work := dom.Workload()
			ctrl.Record(i, work)
			gossip.StepScratch(proc, ctrl.DB(), i, tagGossip, &gs)

			// Collective bookkeeping: total workload, overloading
			// count estimate, and the shared iteration clock. The
			// max-allreduce doubles as the BSP iteration barrier.
			myBit := 0.0
			if cfg.Method == ULBA && ctrl.Overloading() {
				myBit = 1
			}
			red[0], red[1], red[2] = work, myBit, flop/flops
			proc.AllreduceInPlace(red[:], mpisim.OpSum)
			totalWork, nEst, computeSum := red[0], red[1], red[2]
			maxClock := proc.AllreduceMax(proc.Clock())
			iterTime := maxClock - prevMax
			prevMax = maxClock
			trig.Observe(iterTime)

			if rank == 0 {
				iterTimes[i] = iterTime
				computeShare[i] = computeSum
			}

			// LB decision: identical on every rank because all the
			// inputs are shared collective results.
			threshold := math.Inf(1)
			if lbCostAvg.N() > 0 {
				threshold = lbCostAvg.Mean()
				if cfg.Method == ULBA && cfg.IncludeOverhead {
					alphaEff := policy.Alpha(p, int(nEst))
					threshold += core.OverheadSeconds(alphaEff, p, int(nEst),
						totalWork*app.FlopPerUnit, flops)
				}
			}
			fire := i == cfg.WarmupLB || trig.ShouldFire(threshold)
			if !fire {
				continue
			}

			// ---- LB step (Algorithm 2, centralized) ----
			alphaMine := 0.0
			if cfg.Method == ULBA {
				alphaMine = ctrl.AlphaForLB()
			}
			newBounds, newDom, nOverloading := callLoadBalancer(proc, dom, bounds, alphaMine, cfg)
			dom = newDom
			bounds = newBounds
			lbEnd := proc.AllreduceMax(proc.Clock())
			cost := lbEnd - maxClock
			lbCostAvg.Add(cost)
			prevMax = lbEnd
			trig.Reset()
			ctrl.AfterLB()
			if rank == 0 {
				lbIters = append(lbIters, i)
				lbCosts = append(lbCosts, cost)
				lbOverloading = append(lbOverloading, nOverloading)
			}
		}

		// Final accounting.
		total := proc.AllreduceSum(dom.Workload())
		if rank == 0 {
			finalWorkload = total
			finalBounds = bounds
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		IterTimes:     iterTimes,
		LBIters:       lbIters,
		LBCosts:       lbCosts,
		LBOverloading: lbOverloading,
		FinalBounds:   finalBounds,
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
	for _, e := range erodedPerRank {
		erodedTotal += e
	}
	res.Eroded = erodedTotal
	res.FinalWorkload = finalWorkload
	res.ComputeTime = make([]float64, p)
	for r, s := range allStats {
		res.ComputeTime[r] = s.ComputeTime
	}
	return res, nil
}

// callLoadBalancer runs the centralized LB step of Algorithm 2: every PE
// sends its per-column weights and its alpha to the main PE, which computes
// the ULBA targets (with the >= 50% fallback), cuts new stripes, and
// broadcasts them; then columns migrate point-to-point along the
// deterministic transfer plan and each PE rebuilds its domain. The third
// return is the number of PEs that submitted alpha > 0 (known to the main
// PE and broadcast with the partition).
func callLoadBalancer(proc *mpisim.Proc, dom *erosion.Domain, oldBounds []int,
	alpha float64, cfg Config) ([]int, *erosion.Domain, int) {

	p := proc.Size()
	app := dom.Config()
	width := app.Width()

	// Gather [alpha, lo, weights...] on the main PE.
	payload := make([]float64, 0, 2+dom.NumCols())
	payload = append(payload, alpha, float64(dom.Lo()))
	for x := dom.Lo(); x < dom.Hi(); x++ {
		payload = append(payload, dom.ColWeight(x))
	}
	parts := proc.Gather(0, mpisim.PackFloat64s(payload))

	var boundsWire []byte
	if proc.Rank() == 0 {
		colW := make([]float64, width)
		alphas := make([]float64, p)
		nOver := 0
		for r, part := range parts {
			vals := mpisim.UnpackFloat64s(part)
			alphas[r] = vals[0]
			if vals[0] > 0 {
				nOver++
			}
			lo := int(vals[1])
			copy(colW[lo:lo+len(vals)-2], vals[2:])
		}
		total := stats.Sum(colW)
		var newBounds []int
		if cfg.UseRCB {
			newBounds = partition.RecursiveBisection(colW, p)
		} else {
			targets := partition.Targets(total, alphas)
			newBounds = partition.Stripes(colW, targets)
		}
		newBounds = partition.EnsureMinCols(newBounds, 1)
		// The centralized partitioning technique runs on the main PE
		// over the gathered column weights.
		proc.Compute(cfg.PartitionFlopPerCol * float64(width))
		boundsWire = mpisim.PackInts(append([]int{nOver}, newBounds...))
	}
	wire := mpisim.UnpackInts(proc.Bcast(0, boundsWire))
	nOverloading := wire[0]
	newBounds := wire[1:]

	// Migration along the shared deterministic plan: sends first (eager,
	// non-blocking), then receives in plan order. Every migrated cell
	// ships its full modeled state; packing and unpacking cost FLOP
	// proportional to the cells moved.
	plan := partition.Transfers(oldBounds, newBounds)
	for _, tr := range plan {
		if tr.From == proc.Rank() {
			cells := (tr.Hi - tr.Lo) * app.Height
			proc.Compute(0.5 * cfg.MigrateFlopPerCell * float64(cells))
			proc.SendOwnedV(tr.To, tagMigrate,
				dom.AppendRange(proc.AcquireBuf(), tr.Lo, tr.Hi),
				cells*app.WireBytesPerCell())
		}
	}
	received := make(map[int][][]erosion.Cell)
	for _, tr := range plan {
		if tr.To == proc.Rank() {
			wire := proc.Recv(tr.From, tagMigrate)
			received[tr.Lo] = erosion.UnpackCells(wire, app.Height)
			proc.ReleaseBuf(wire)
			cells := (tr.Hi - tr.Lo) * app.Height
			proc.Compute(cfg.MigrateFlopPerCell * float64(cells))
		}
	}
	newDom := dom.Rebuild(newBounds[proc.Rank()], newBounds[proc.Rank()+1], received)
	// Every PE rebuilds its local mesh structures over its (new) range.
	proc.Compute(cfg.RebuildFlopPerCell * float64(newDom.NumCols()) * float64(app.Height))
	return newBounds, newDom, nOverloading
}
