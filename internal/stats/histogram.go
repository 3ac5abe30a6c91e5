package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bin histogram over a closed interval, used to render
// the gain distribution of Fig. 2 in the terminal and in EXPERIMENTS.md.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
	under  int // observations below Lo
	over   int // observations above Hi
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi].
// It panics if bins is not positive or the interval is empty.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		panic("stats: histogram interval must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation. Observations outside [Lo, Hi] are tallied in
// the under/overflow counters rather than dropped silently.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo {
		h.under++
		return
	}
	if x > h.Hi {
		h.over++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i == len(h.Counts) { // x == Hi lands in the last bin
		i--
	}
	h.Counts[i]++
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Probability returns the fraction of all observations falling in bin i.
func (h *Histogram) Probability(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Render draws the histogram as rows of "center  count  bar" with bars scaled
// so the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%+8.2f%% | %-*s %d (p=%.3f)\n",
			h.BinCenter(i)*100, width, strings.Repeat("#", bar), c, h.Probability(i))
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "(outliers: %d below %.3g, %d above %.3g)\n", h.under, h.Lo, h.over, h.Hi)
	}
	return b.String()
}
