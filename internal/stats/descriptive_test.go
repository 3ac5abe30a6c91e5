package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSumMean(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %v, want 6.5", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance single = %v, want 0", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
}

func TestZScoreUniformPopulation(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	if got := ZScore(5, xs); got != 0 {
		t.Errorf("ZScore in constant population = %v, want 0", got)
	}
}

func TestZScoreSingleOutlier(t *testing.T) {
	// One outlier among P equal values has z-score sqrt(P-1): the closed
	// form the paper's threshold of 3.0 relies on (sqrt(31) ~ 5.57 > 3
	// for P=32).
	for _, p := range []int{8, 32, 128} {
		xs := make([]float64, p)
		for i := range xs {
			xs[i] = 1
		}
		xs[0] = 2
		want := math.Sqrt(float64(p - 1))
		if got := ZScore(xs[0], xs); !almostEqual(got, want, 1e-9) {
			t.Errorf("P=%d: outlier z = %v, want %v", p, got, want)
		}
		// The non-outliers must sit below the threshold.
		if z := ZScore(1, xs); z >= 3 {
			t.Errorf("P=%d: inlier z = %v, should be small", p, z)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{9, 1, 2}, 2},
		{[]float64{1, 9, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5, 5}, 5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 0}
	Median(xs)
	want := []float64{5, 1, 4, 2, 3, 9, 0}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Median mutated its input: %v", xs)
		}
	}
}

func TestMedian3AllOrderings(t *testing.T) {
	vals := []float64{1, 2, 3}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		in := []float64{vals[p[0]], vals[p[1]], vals[p[2]]}
		if got := Median(in); got != 2 {
			t.Errorf("Median(%v) = %v, want 2", in, got)
		}
	}
}

// The percentile rule behind Summarize's quartiles.
func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := percentileSorted(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := percentileSorted(xs, 100); got != 4 {
		t.Errorf("P100 = %v", got)
	}
	if got := percentileSorted(xs, 50); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("P50 = %v, want 2.5", got)
	}
	if got := percentileSorted(xs, 25); !almostEqual(got, 1.75, 1e-12) {
		t.Errorf("P25 = %v, want 1.75", got)
	}
	if got := percentileSorted([]float64{42}, 73); got != 42 {
		t.Errorf("percentile of a singleton = %v", got)
	}
	if f := Summarize(xs); f.Q1 != percentileSorted(xs, 25) || f.Q3 != percentileSorted(xs, 75) {
		t.Errorf("Summarize quartiles %v, %v disagree with percentileSorted", f.Q1, f.Q3)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{7, 15, 36, 39, 40, 41}
	f := Summarize(xs)
	if f.Min != 7 || f.Max != 41 || f.N != 6 {
		t.Errorf("Summarize extremes wrong: %+v", f)
	}
	if !almostEqual(f.Median, 37.5, 1e-12) {
		t.Errorf("median = %v, want 37.5", f.Median)
	}
	if f.Q1 > f.Median || f.Median > f.Q3 {
		t.Errorf("quartiles out of order: %+v", f)
	}
	if s := f.String(); s == "" {
		t.Error("String should not be empty")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: median lies between min and max and is order-independent.
func TestMedianProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Bound magnitude so averaging two middle elements of an
			// even-length slice cannot overflow.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e300 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if m < sorted[0] || m > sorted[len(sorted)-1] {
			return false
		}
		return Median(sorted) == m || almostEqual(Median(sorted), m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: z-scores of any population have (near) zero mean.
func TestZScoresZeroMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		zs := make([]float64, len(xs))
		for i, x := range xs {
			zs[i] = ZScore(x, xs)
		}
		return math.Abs(Mean(zs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Variance is translation invariant and scales quadratically.
func TestVarianceScalingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		zs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-100, 100)
			ys[i] = xs[i] + 17
			zs[i] = 3 * xs[i]
		}
		v := Variance(xs)
		return almostEqual(Variance(ys), v, 1e-9) && almostEqual(Variance(zs), 9*v, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
