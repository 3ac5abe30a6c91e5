// Package partition implements the centralized stripe partitioning technique
// of Section IV-B of the paper: the computational domain is divided into P
// stripes of consecutive columns along the x-axis such that each stripe
// carries (approximately) a prescribed workload. The prescription is either
// the even share (standard LB method) or the ULBA weights of Algorithm 2,
// where each overloading PE keeps only (1 - alpha) of the balanced share and
// the freed workload is spread evenly over the non-overloading PEs.
//
// A 1D recursive-bisection partitioner is included as an ablation
// alternative (the paper cites recursive bisection among classic
// partitioning techniques).
package partition

import (
	"fmt"
	"sort"
)

// Targets computes the per-PE target workloads of Algorithm 2 from the total
// workload and the per-PE alpha values (alpha > 0 marks an overloading PE;
// 0 marks a normal one). Following Section III-C, if at least half of the
// PEs declare themselves overloading, underloading them is
// counter-productive and the even split is used instead (all alphas treated
// as zero).
//
// The returned targets always sum to wtot (workload conservation).
func Targets(wtot float64, alphas []float64) []float64 {
	p := len(alphas)
	if p == 0 {
		return nil
	}
	share := wtot / float64(p)
	out := make([]float64, p)
	n := 0
	for _, a := range alphas {
		if a < 0 || a > 1 {
			panic(fmt.Sprintf("partition: alpha %g out of [0,1]", a))
		}
		if a > 0 {
			n++
		}
	}
	if n == 0 || n >= (p+1)/2 || n == p {
		// Standard method: perfectly even split. The n >= 50% rule is
		// from Section III-C ("it is counter-productive to unload a
		// majority of PEs").
		for i := range out {
			out[i] = share
		}
		return out
	}
	var removed float64
	for i, a := range alphas {
		if a > 0 {
			out[i] = (1 - a) * share
			removed += a * share
		}
	}
	extra := removed / float64(p-n)
	for i, a := range alphas {
		if a == 0 {
			out[i] = share + extra
		}
	}
	return out
}

// EvenTargets returns the perfectly balanced targets of the standard method.
func EvenTargets(wtot float64, p int) []float64 {
	out := make([]float64, p)
	for i := range out {
		out[i] = wtot / float64(p)
	}
	return out
}

// ProportionalTargets returns per-PE targets proportional to the given
// positive speeds: target_i = wtot * speeds_i / sum(speeds). On a
// heterogeneous cluster this is the optimum the even split misses — a PE
// twice as fast should own twice the work (Lastovetsky & Szustak), so the
// deliberately non-uniform partition equalizes compute *time*, not work.
func ProportionalTargets(wtot float64, speeds []float64) []float64 {
	total := 0.0
	for i, s := range speeds {
		if s <= 0 {
			panic(fmt.Sprintf("partition: non-positive speed %g at %d", s, i))
		}
		total += s
	}
	out := make([]float64, len(speeds))
	for i, s := range speeds {
		out[i] = wtot * s / total
	}
	return out
}

// Stripes cuts the columns into len(targets) contiguous stripes whose
// weights track the targets. Boundaries has length P+1 with Boundaries[0]=0
// and Boundaries[P]=len(colWeights); stripe p owns columns
// [Boundaries[p], Boundaries[p+1]).
//
// The cut after stripe p is placed at the column where the cumulative weight
// best approximates the cumulative target, which keeps the error of every
// stripe below one column's weight. Targets are rescaled to the actual total
// weight first, so callers may pass stale totals safely.
func Stripes(colWeights []float64, targets []float64) []int {
	p := len(targets)
	cols := len(colWeights)
	if p == 0 {
		panic("partition: no targets")
	}
	bounds := make([]int, p+1)
	bounds[p] = cols
	if cols == 0 {
		return bounds
	}
	total := 0.0
	cum := make([]float64, cols+1)
	for i, w := range colWeights {
		if w < 0 {
			panic(fmt.Sprintf("partition: negative column weight %g at %d", w, i))
		}
		total += w
		cum[i+1] = total
	}
	tSum := 0.0
	for _, t := range targets {
		if t < 0 {
			panic(fmt.Sprintf("partition: negative target %g", t))
		}
		tSum += t
	}
	scale := 0.0
	if tSum > 0 {
		scale = total / tSum
	}
	tCum := 0.0
	for i := 0; i < p-1; i++ {
		tCum += targets[i] * scale
		// Binary search the cumulative weights for tCum, then choose
		// the neighbor with the smaller error.
		j := sort.SearchFloat64s(cum, tCum)
		if j > 0 && (j > cols || cum[j]-tCum >= tCum-cum[j-1]) {
			j--
		}
		// Keep boundaries monotone and leave at least zero columns.
		if j < bounds[i] {
			j = bounds[i]
		}
		if j > cols {
			j = cols
		}
		bounds[i+1] = j
	}
	return bounds
}

// Validate checks structural boundary invariants.
func Validate(bounds []int, cols int) error {
	if len(bounds) < 2 {
		return fmt.Errorf("partition: boundaries too short: %v", bounds)
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != cols {
		return fmt.Errorf("partition: boundaries must span [0, %d]: %v", cols, bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("partition: boundaries not monotone: %v", bounds)
		}
	}
	return nil
}

// StripeWeights returns the actual weight of each stripe under bounds.
func StripeWeights(colWeights []float64, bounds []int) []float64 {
	p := len(bounds) - 1
	out := make([]float64, p)
	for i := 0; i < p; i++ {
		for c := bounds[i]; c < bounds[i+1]; c++ {
			out[i] += colWeights[c]
		}
	}
	return out
}

// Imbalance returns max/mean - 1 of the stripe weights: 0 for a perfect
// balance. An empty or zero-weight partition reports 0.
func Imbalance(weights []float64) float64 {
	if len(weights) == 0 {
		return 0
	}
	var sum, max float64
	for _, w := range weights {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(weights))
	return max/mean - 1
}

// OwnerOf returns the stripe owning column col under bounds. The tests use
// it as the per-column oracle of Transfers.
func OwnerOf(bounds []int, col int) int {
	if col < 0 || col >= bounds[len(bounds)-1] {
		panic(fmt.Sprintf("partition: column %d outside domain %v", col, bounds))
	}
	// Find the last boundary <= col.
	lo, hi := 0, len(bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= col {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Skip empty stripes: the owner is the stripe whose range contains
	// col, i.e. bounds[lo] <= col < bounds[lo+1].
	for bounds[lo+1] <= col {
		lo++
	}
	return lo
}

// Transfer describes a contiguous column range moving between PEs during
// migration.
type Transfer struct {
	From, To int
	Lo, Hi   int // column range [Lo, Hi)
}

// Transfers computes the migration plan between two partitions of the same
// domain: every column whose owner changes appears in exactly one transfer,
// and transfers are maximal contiguous runs sorted by column. Both
// boundary slices must cover the same number of columns. The plan is a
// merge of the two boundary lists, O(P) with one cursor per list: the run
// starting at col ends where the first of its two owning stripes ends.
func Transfers(oldBounds, newBounds []int) []Transfer {
	cols := oldBounds[len(oldBounds)-1]
	if newBounds[len(newBounds)-1] != cols {
		panic("partition: transfer plans need identical domains")
	}
	var plan []Transfer
	from, to := 0, 0
	for col := 0; col < cols; {
		// Advance each cursor to the stripe owning col, past empty ones.
		for oldBounds[from+1] <= col {
			from++
		}
		for newBounds[to+1] <= col {
			to++
		}
		end := min(oldBounds[from+1], newBounds[to+1])
		if from != to {
			plan = append(plan, Transfer{From: from, To: to, Lo: col, Hi: end})
		}
		col = end
	}
	return plan
}

// EnsureMinCols adjusts boundaries so every stripe owns at least min
// columns, preserving validity. The domain must have at least
// (len(bounds)-1)*min columns. Distributed applications with nearest-
// neighbor halo exchange need this: an empty stripe would break the
// assumption that rank r's left neighbor column lives on rank r-1.
func EnsureMinCols(bounds []int, min int) []int {
	p := len(bounds) - 1
	cols := bounds[p]
	if min <= 0 {
		return append([]int(nil), bounds...)
	}
	if cols < p*min {
		panic(fmt.Sprintf("partition: %d columns cannot give %d stripes %d columns each", cols, p, min))
	}
	out := append([]int(nil), bounds...)
	for i := 1; i < p; i++ { // push right: at least min columns per stripe
		if out[i] < out[i-1]+min {
			out[i] = out[i-1] + min
		}
	}
	for i := p - 1; i >= 1; i-- { // pull back from the right edge
		if out[i] > out[i+1]-min {
			out[i] = out[i+1] - min
		}
	}
	return out
}

// RecursiveBisection splits the columns into p stripes by recursively
// bisecting the weight, the 1D analogue of recursive coordinate bisection.
// Provided as an ablation alternative to Stripes; both produce boundary
// vectors with identical invariants.
func RecursiveBisection(colWeights []float64, p int) []int {
	if p <= 0 {
		panic("partition: need at least one part")
	}
	bounds := make([]int, 0, p+1)
	bounds = append(bounds, 0)
	bisect(colWeights, 0, len(colWeights), p, &bounds)
	return bounds
}

func bisect(w []float64, lo, hi, parts int, bounds *[]int) {
	if parts == 1 {
		*bounds = append(*bounds, hi)
		return
	}
	leftParts := parts / 2
	rightParts := parts - leftParts
	var total float64
	for c := lo; c < hi; c++ {
		total += w[c]
	}
	want := total * float64(leftParts) / float64(parts)
	acc := 0.0
	cut := lo
	for cut < hi && acc+w[cut] <= want {
		acc += w[cut]
		cut++
	}
	// Leave room for the right parts if weights are degenerate.
	if hi-cut < 0 {
		cut = hi
	}
	bisect(w, lo, cut, leftParts, bounds)
	bisect(w, cut, hi, rightParts, bounds)
}
