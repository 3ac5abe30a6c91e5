package stats

import "math"

// LinearFit is the result of an ordinary least squares fit y = Slope*x +
// Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
}

// LinearRegression fits y = a*x + b to the paired samples by ordinary least
// squares. It returns a zero fit when fewer than two points are supplied or
// when all x values coincide. The ULBA runtime uses the slope of
// (iteration, workload) pairs as the workload increase rate (WIR) estimate.
func LinearRegression(xs, ys []float64) LinearFit {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{}
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	return LinearFit{Slope: slope, Intercept: my - slope*mx}
}

// SlopeOverIndex fits ys against their indices 0..n-1 and returns the slope.
// This is the WIR of a workload series sampled once per iteration.
func SlopeOverIndex(ys []float64) float64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	// x = 0..n-1, so mean(x) = (n-1)/2 and sxx has a closed form:
	// sum((i-mx)^2) = n*(n^2-1)/12.
	mx := float64(n-1) / 2
	my := Mean(ys)
	var sxy float64
	for i, y := range ys {
		sxy += (float64(i) - mx) * (y - my)
	}
	sxx := float64(n) * (float64(n)*float64(n) - 1) / 12
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// Valid reports whether the fit contains finite coefficients.
func (f LinearFit) Valid() bool {
	return !math.IsNaN(f.Slope) && !math.IsInf(f.Slope, 0) &&
		!math.IsNaN(f.Intercept) && !math.IsInf(f.Intercept, 0)
}
