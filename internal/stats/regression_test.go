package stats

import (
	"testing"
	"testing/quick"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 7
	}
	fit := LinearRegression(xs, ys)
	if !almostEqual(fit.Slope, 2.5, 1e-12) || !almostEqual(fit.Intercept, -7, 1e-12) {
		t.Errorf("fit = %+v, want slope 2.5 intercept -7", fit)
	}
	if !fit.Valid() {
		t.Error("fit should be valid")
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if fit := LinearRegression([]float64{1}, []float64{2}); fit.Slope != 0 {
		t.Error("single point should give zero fit")
	}
	if fit := LinearRegression([]float64{1, 2}, []float64{2}); fit.Slope != 0 {
		t.Error("mismatched lengths should give zero fit")
	}
	// All x equal: slope undefined, return horizontal line through mean.
	fit := LinearRegression([]float64{3, 3, 3}, []float64{1, 2, 3})
	if fit.Slope != 0 || !almostEqual(fit.Intercept, 2, 1e-12) {
		t.Errorf("vertical data fit = %+v, want slope 0 intercept 2", fit)
	}
}

func TestSlopeOverIndexMatchesRegression(t *testing.T) {
	ys := []float64{10, 12, 15, 15, 19, 22}
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	want := LinearRegression(xs, ys).Slope
	if got := SlopeOverIndex(ys); !almostEqual(got, want, 1e-12) {
		t.Errorf("SlopeOverIndex = %v, want %v", got, want)
	}
}

func TestSlopeOverIndexShort(t *testing.T) {
	if SlopeOverIndex(nil) != 0 || SlopeOverIndex([]float64{5}) != 0 {
		t.Error("short series should have zero slope")
	}
}

// Property: the WIR estimator recovers the rate of any noiseless linear
// workload series, which is the principle-of-persistence assumption the
// paper builds on.
func TestSlopeRecoversRateProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(60)
		rate := rng.Uniform(-1e4, 1e4)
		w0 := rng.Uniform(0, 1e6)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = w0 + rate*float64(i)
		}
		return almostEqual(SlopeOverIndex(ys), rate, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: regression slope is invariant under y-translation and scales
// linearly with y-scaling.
func TestRegressionLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Uniform(-50, 50)
			ys[i] = rng.Uniform(-50, 50)
		}
		base := LinearRegression(xs, ys).Slope
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i := range ys {
			shifted[i] = ys[i] + 123
			scaled[i] = -2 * ys[i]
		}
		s1 := LinearRegression(xs, shifted).Slope
		s2 := LinearRegression(xs, scaled).Slope
		return almostEqual(s1, base, 1e-6) && almostEqual(s2, -2*base, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
