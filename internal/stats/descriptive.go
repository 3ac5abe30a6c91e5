// Package stats provides the small statistical toolkit used throughout the
// ULBA reproduction: descriptive statistics, z-scores, five-number summaries
// for box plots, histograms, linear regression for workload-increase-rate
// estimation, and deterministic counter-based random number generation.
//
// Everything here is dependency-free and allocation-conscious; the functions
// are used both by the synthetic experiment drivers (Figs. 2 and 3 of the
// paper) and by the simulated runtime on the hot path (per-iteration WIR
// estimation and overload detection).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sum returns the sum of xs. It returns 0 for an empty slice.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by len(xs)).
// It returns NaN for an empty slice and 0 for a single element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// ZScore returns (x - mean) / stddev over the population xs.
// If the standard deviation is zero it returns 0: in a perfectly uniform
// population no element is an outlier, which is exactly the semantics the
// ULBA overload detector needs (no PE overloads when all WIRs are equal).
func ZScore(x float64, xs []float64) float64 {
	sd := StdDev(xs)
	if sd == 0 || math.IsNaN(sd) {
		return 0
	}
	return (x - Mean(xs)) / sd
}

// Median returns the median of xs without modifying it.
// It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	case 2:
		return (xs[0] + xs[1]) / 2
	case 3:
		// Hot path: Algorithm 1 takes the median of the last three
		// iteration times every iteration.
		return median3(xs[0], xs[1], xs[2])
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// percentileSorted returns the p-th percentile (0 <= p <= 100) of a
// non-empty sorted slice by linear interpolation between closest ranks
// (numpy's default convention).
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FiveNum is a five-number summary plus the mean: the statistics needed to
// draw one box of a box plot, as in Fig. 3 of the paper.
type FiveNum struct {
	Min    float64 // lower whisker (true minimum)
	Q1     float64 // first quartile
	Median float64
	Q3     float64 // third quartile
	Max    float64 // upper whisker (true maximum)
	Mean   float64
	N      int
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		nan := math.NaN()
		return FiveNum{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return FiveNum{
		Min:    cp[0],
		Q1:     percentileSorted(cp, 25),
		Median: percentileSorted(cp, 50),
		Q3:     percentileSorted(cp, 75),
		Max:    cp[len(cp)-1],
		Mean:   Mean(cp),
		N:      len(cp),
	}
}

// String renders the summary on one line, suitable for experiment tables.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g n=%d",
		f.Min, f.Q1, f.Median, f.Q3, f.Max, f.Mean, f.N)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
