package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5, 9.99, 10})
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10]
	want := []int{2, 1, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.total != 6 {
		t.Errorf("total = %d, want 6", h.total)
	}
}

// Observations outside [Lo, Hi] land in no bin, count toward the total,
// and are reported on Render's outlier line.
func TestHistogramOutliers(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.5)
	h.Add(2)
	h.Add(0.5)
	if h.under != 1 || h.over != 1 || h.total != 3 {
		t.Errorf("under, over, total = %d, %d, %d, want 1, 1, 3", h.under, h.over, h.total)
	}
	if out := h.Render(10); !strings.Contains(out, "(outliers: 1 below 0, 1 above 1)") {
		t.Errorf("Render does not report the outliers:\n%s", out)
	}
}

func TestHistogramProbabilitySumsToOne(t *testing.T) {
	h := NewHistogram(-1, 1, 8)
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		h.Add(r.Uniform(-1, 1))
	}
	var sum float64
	for i := range h.Counts {
		sum += h.Probability(i)
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Errorf("BinCenter(4) = %v, want 9", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(-0.06, 0.02, 4)
	h.AddAll([]float64{-0.05, -0.01, -0.01, 0.01, 0.5})
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Error("render should contain bars")
	}
	if !strings.Contains(out, "outliers") {
		t.Error("render should mention outliers")
	}
	if lines := strings.Count(out, "\n"); lines < 4 {
		t.Errorf("render has %d lines, want >= 4", lines)
	}
	// Zero-width falls back to a default.
	if !strings.Contains(NewHistogram(0, 1, 1).Render(0), "|") {
		t.Error("render with width 0 should still work")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
		func() { NewHistogram(2, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramEmptyProbability(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Probability(0) != 0 {
		t.Error("empty histogram probability should be 0")
	}
}
