package lb

import (
	"math"

	"ulba/internal/partition"
	"ulba/internal/stats"
)

// This file implements the sequential fast engine behind RunSynth. The
// synthetic runner's rank body is entirely fixed — compute from a pure
// weight function, two scalar allreduces, and the centralized re-partition
// when the trigger fires — so instead of spawning P goroutines with
// mailboxes per scenario, the engine advances all P virtual clocks
// analytically through the exact message schedule the goroutine engine
// would execute. Every clock update mirrors one Send/Recv/Compute of the
// reference engine and every floating-point combine happens in the same
// order, so the result is bit-identical to RunSynthSim; the differential
// tests and FuzzSynthFastMatchesSim hold the two engines together.

// WeightTable pre-evaluates a scenario's weight function over the full
// (item, iteration) grid so the per-iteration compute phase reads a row
// instead of re-invoking the closure per item. Values are the exact
// float64s the Weight function returned, so a tabled run is bit-identical
// to an untabled one.
type WeightTable struct {
	Items      int
	Iterations int
	w          []float64 // row-major: w[iter*Items + item]
}

// MaxTableCells caps the items x iterations grid a weight table covers
// (4Mi cells, 32 MiB of float64s), so a pathological scenario cannot pin
// memory: the table is an optimization, never a requirement.
const MaxTableCells = 4 << 20

// BuildWeightTable evaluates weight over the grid in row-major order.
func BuildWeightTable(items, iterations int, weight func(item, iter int) float64) *WeightTable {
	t := &WeightTable{
		Items:      items,
		Iterations: iterations,
		w:          make([]float64, items*iterations),
	}
	for i := 0; i < iterations; i++ {
		row := t.w[i*items : (i+1)*items]
		for j := range row {
			row[j] = weight(j, i)
		}
	}
	return t
}

// Row returns the weights of all items at the given iteration. The slice
// aliases the table; callers must not modify it.
func (t *WeightTable) Row(iter int) []float64 {
	return t.w[iter*t.Items : (iter+1)*t.Items]
}

// tableRow returns the pre-evaluated weight row for iteration i, or nil if
// the config carries no table covering it.
func (c SynthConfig) tableRow(i int) []float64 {
	if c.Table == nil || c.Table.Items != c.Items || i >= c.Table.Iterations {
		return nil
	}
	return c.Table.Row(i)
}

// synthFast holds the per-scenario state of the fast engine: one virtual
// clock and compute-time accumulator per rank, plus scratch arrays reused
// across iterations so the steady-state loop allocates nothing.
type synthFast struct {
	cfg      SynthConfig
	p        int
	lat, bt  float64   // cost model: Latency, ByteTime
	denom    []float64 // per-rank FLOP/s rate (FLOPS, speed-scaled)
	clock    []float64
	computeT []float64
	vals     []float64 // per-rank input to the current allreduce
	acc      []float64 // per-rank accumulator during the reduce tree
	avail    []float64 // per-rank availAt of the in-flight tree message
	itemW    []float64 // root's gathered weight array during a LB step
	migAvail []float64 // per-transfer availAt during migration
	bounds   []int
}

// compute mirrors Proc.Compute on rank r.
func (f *synthFast) compute(r int, flop float64) {
	dt := flop / f.denom[r]
	f.clock[r] += dt
	f.computeT[r] += dt
}

// allreduce advances every rank's clock through one Allreduce of a single
// float64 — binomial-tree reduce to rank 0, then binomial-tree broadcast —
// and returns the folded result. Ranks are processed in decreasing order
// during the reduce (children complete before parents receive) and
// increasing order during the broadcast (parents send before children
// receive); partial results combine in exactly the mask-ascending order
// reduceInPlace combines them, so sums carry the same rounding.
func (f *synthFast) allreduce(sum bool) float64 {
	size := f.p
	if size == 1 {
		return f.vals[0]
	}
	const bytes = 8.0
	copy(f.acc, f.vals)
	for r := size - 1; r >= 0; r-- {
		for mask := 1; mask < size; mask <<= 1 {
			if r&mask != 0 {
				// Send the partial to parent r-mask and stop.
				f.avail[r] = f.clock[r] + f.lat + bytes*f.bt
				f.clock[r] += f.lat
				break
			}
			if c := r + mask; c < size {
				// Receive child c's partial and fold it in.
				if f.avail[c] > f.clock[r] {
					f.clock[r] = f.avail[c]
				}
				f.clock[r] += f.lat
				if sum {
					f.acc[r] += f.acc[c]
				} else if f.acc[c] > f.acc[r] {
					f.acc[r] = f.acc[c]
				}
			}
		}
	}
	f.bcastClocks(bytes)
	return f.acc[0]
}

// bcastClocks advances every rank's clock through one binomial-tree
// broadcast from rank 0 of a payload of the given wire size.
func (f *synthFast) bcastClocks(bytes float64) {
	size := f.p
	for r := 0; r < size; r++ {
		if r != 0 {
			// Receive from the parent (which, being a lower rank, has
			// already stamped avail[r]).
			if f.avail[r] > f.clock[r] {
				f.clock[r] = f.avail[r]
			}
			f.clock[r] += f.lat
		}
		startMask := 1
		for startMask <= r {
			startMask <<= 1
		}
		for mask := startMask; r+mask < size; mask <<= 1 {
			f.avail[r+mask] = f.clock[r] + f.lat + bytes*f.bt
			f.clock[r] += f.lat
		}
	}
}

// computePhase fills f.vals with each rank's compute seconds at iteration i
// (via synthRankSeconds, the same expression the rank bodies charge) and
// advances the clocks through the compute phase. After it returns, f.vals
// holds the per-rank dts — the allreduce input and the WLI source.
func (f *synthFast) computePhase(i int) {
	f.cfg.synthRankSeconds(f.vals, f.bounds, i)
	for r := 0; r < f.p; r++ {
		dt := f.vals[r]
		f.clock[r] += dt
		f.computeT[r] += dt
	}
}

// rebalance advances every clock through one centralized LB step — linear
// gather of [lo, weights...] into rank 0, the partition compute, the
// bounds broadcast, the migration plan, and the per-rank rebuild — and
// installs the new bounds. It mirrors rebalanceSynth message for message.
func (f *synthFast) rebalance(iter int) {
	cfg := &f.cfg
	size := f.p

	// Gather: non-roots send [lo, weights...], root receives in ascending
	// rank order. The wire carries 8 bytes per float64.
	for r := 1; r < size; r++ {
		bytes := 8.0 * float64(1+f.bounds[r+1]-f.bounds[r])
		f.avail[r] = f.clock[r] + f.lat + bytes*f.bt
		f.clock[r] += f.lat
	}
	for r := 1; r < size; r++ {
		if f.avail[r] > f.clock[0] {
			f.clock[0] = f.avail[r]
		}
		f.clock[0] += f.lat
	}

	// Root recomputes the full weight array. The gathered wire values are
	// lossless float64 round trips of the same pure function, so reading
	// the function (or table) directly yields the identical bits.
	row := cfg.tableRow(iter)
	if row != nil {
		copy(f.itemW, row)
	} else {
		for j := 0; j < cfg.Items; j++ {
			f.itemW[j] = cfg.Weight(j, iter)
		}
	}
	targets := cfg.synthTargets(stats.Sum(f.itemW))
	newBounds := partition.Stripes(f.itemW, targets)
	newBounds = partition.EnsureMinCols(newBounds, 1)
	f.compute(0, partitionFlopPerItem*float64(cfg.Items))

	// Broadcast of the packed bounds: 8 bytes per int, P+1 ints.
	f.bcastClocks(8.0 * float64(len(newBounds)))

	// Migration along the shared deterministic plan: sends in plan order
	// (charging the pack compute), then receives in plan order. A
	// (sender, receiver) pair repeating in the plan matches FIFO on both
	// sides, exactly like the tagged mailbox streams.
	plan := partition.Transfers(f.bounds, newBounds)
	f.migAvail = f.migAvail[:0]
	for _, tr := range plan {
		cnt := tr.Hi - tr.Lo
		f.compute(tr.From, 0.5*migrateFlopPerItem*float64(cnt))
		f.migAvail = append(f.migAvail, f.clock[tr.From]+f.lat+float64(cnt*itemBytes)*f.bt)
		f.clock[tr.From] += f.lat
	}
	for k, tr := range plan {
		r := tr.To
		if f.migAvail[k] > f.clock[r] {
			f.clock[r] = f.migAvail[k]
		}
		f.clock[r] += f.lat
		f.compute(r, migrateFlopPerItem*float64(tr.Hi-tr.Lo))
	}

	// Every rank rebuilds its local structures over its new range.
	copy(f.bounds, newBounds)
	for r := 0; r < size; r++ {
		f.compute(r, rebuildFlopPerItem*float64(f.bounds[r+1]-f.bounds[r]))
	}
}

// runSynthFast executes the scenario on the sequential fast engine. cfg
// must already be normalized and validated.
func runSynthFast(cfg SynthConfig) (SynthResult, error) {
	p := cfg.P
	f := &synthFast{
		cfg:      cfg,
		p:        p,
		lat:      cfg.Cost.Latency,
		bt:       cfg.Cost.ByteTime,
		denom:    make([]float64, p),
		clock:    make([]float64, p),
		computeT: make([]float64, p),
		vals:     make([]float64, p),
		acc:      make([]float64, p),
		avail:    make([]float64, p),
		itemW:    make([]float64, cfg.Items),
		bounds:   make([]int, p+1),
	}
	for r := 0; r < p; r++ {
		f.denom[r] = cfg.denom(r)
	}
	for i := range f.bounds {
		f.bounds[i] = i * cfg.Items / p
	}

	var trig Trigger
	if cfg.TriggerFactory != nil {
		trig = cfg.TriggerFactory()
	} else {
		trig = NewDegradation()
	}
	imbObs, observesWLI := trig.(ImbalanceObserver)

	iterTimes := make([]float64, cfg.Iterations)
	computeShare := make([]float64, cfg.Iterations)
	wliTrace := make([]float64, cfg.Iterations)
	var lbIters []int
	var lbCosts []float64
	var lbCostAvg stats.Running
	prevMax := 0.0

	for i := 0; i < cfg.Iterations; i++ {
		f.computePhase(i)
		// f.vals holds the per-rank compute seconds until the clocks
		// overwrite it for the max-allreduce below; the WLI reads it
		// here, out-of-band, exactly like the rank bodies recompute it.
		wli := wliOf(f.vals)
		computeSum := f.allreduce(true)
		for r := 0; r < p; r++ {
			f.vals[r] = f.clock[r]
		}
		maxClock := f.allreduce(false)
		iterTime := maxClock - prevMax
		prevMax = maxClock
		trig.Observe(iterTime)
		if observesWLI {
			imbObs.ObserveImbalance(wli)
		}
		iterTimes[i] = iterTime
		computeShare[i] = computeSum
		wliTrace[i] = wli

		threshold := math.Inf(1)
		if lbCostAvg.N() > 0 {
			threshold = lbCostAvg.Mean()
		}
		fire := i == cfg.WarmupLB || trig.ShouldFire(threshold)
		if !fire {
			continue
		}

		f.rebalance(i)
		for r := 0; r < p; r++ {
			f.vals[r] = f.clock[r]
		}
		lbEnd := f.allreduce(false)
		cost := lbEnd - maxClock
		lbCostAvg.Add(cost)
		prevMax = lbEnd
		trig.Reset()
		lbIters = append(lbIters, i)
		lbCosts = append(lbCosts, cost)
	}

	res := SynthResult{
		IterTimes:   iterTimes,
		WLI:         wliTrace,
		LBIters:     lbIters,
		LBCosts:     lbCosts,
		FinalBounds: f.bounds,
	}
	for _, c := range f.clock {
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
	res.ComputeTime = f.computeT
	return res, nil
}
