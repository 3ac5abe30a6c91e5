package partition

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ulba/internal/stats"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestTargetsEvenWhenNoOverload(t *testing.T) {
	got := Targets(100, []float64{0, 0, 0, 0})
	for _, w := range got {
		if w != 25 {
			t.Fatalf("Targets = %v, want all 25", got)
		}
	}
}

func TestTargetsULBAWeights(t *testing.T) {
	// P=4, one overloading PE with alpha=0.4: it keeps 0.6*share; the
	// other three each gain 0.4*share/3.
	got := Targets(100, []float64{0, 0.4, 0, 0})
	share := 25.0
	if !almostEqual(got[1], 0.6*share, 1e-12) {
		t.Errorf("overloading target = %v, want %v", got[1], 0.6*share)
	}
	extra := 0.4 * share / 3
	for _, i := range []int{0, 2, 3} {
		if !almostEqual(got[i], share+extra, 1e-12) {
			t.Errorf("normal target[%d] = %v, want %v", i, got[i], share+extra)
		}
	}
}

func TestTargetsConserveWorkload(t *testing.T) {
	cases := [][]float64{
		{0, 0, 0},
		{0.5, 0, 0, 0, 0},
		{0.2, 0.9, 0, 0, 0, 0, 0},
		{1, 0, 0},
		{0.3, 0.3, 0.3}, // all overloading: falls back to even
	}
	for _, alphas := range cases {
		got := Targets(123.5, alphas)
		if !almostEqual(stats.Sum(got), 123.5, 1e-9) {
			t.Errorf("alphas %v: targets %v sum to %v, want 123.5", alphas, got, stats.Sum(got))
		}
	}
}

func TestTargetsMajorityRule(t *testing.T) {
	// 2 of 4 overloading = 50%: counter-productive, use even split.
	got := Targets(100, []float64{0.5, 0.5, 0, 0})
	for _, w := range got {
		if w != 25 {
			t.Fatalf("majority rule not applied: %v", got)
		}
	}
	// 1 of 4 (25%) is fine.
	got = Targets(100, []float64{0.5, 0, 0, 0})
	if got[0] != 12.5 {
		t.Errorf("minority overloading should be underloaded: %v", got)
	}
}

func TestTargetsPanicsOnBadAlpha(t *testing.T) {
	for _, bad := range [][]float64{{-0.1, 0}, {1.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alphas %v should panic", bad)
				}
			}()
			Targets(10, bad)
		}()
	}
}

func TestTargetsEmpty(t *testing.T) {
	if got := Targets(10, nil); got != nil {
		t.Errorf("empty alphas should give nil targets, got %v", got)
	}
}

func TestStripesEvenSplit(t *testing.T) {
	w := make([]float64, 100)
	for i := range w {
		w[i] = 1
	}
	bounds := Stripes(w, EvenTargets(100, 4))
	want := []int{0, 25, 50, 75, 100}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
	if err := Validate(bounds, 100); err != nil {
		t.Fatal(err)
	}
}

func TestStripesWeighted(t *testing.T) {
	// Heavy columns on the left: the left stripe must be narrow.
	w := make([]float64, 10)
	for i := range w {
		if i < 5 {
			w[i] = 9
		} else {
			w[i] = 1
		}
	}
	bounds := Stripes(w, EvenTargets(50, 2))
	// Total 50; even split wants 25 each: cut near column 3 (27 vs 25).
	if bounds[1] < 2 || bounds[1] > 4 {
		t.Errorf("cut at %d, want near 3 (bounds %v)", bounds[1], bounds)
	}
	sw := StripeWeights(w, bounds)
	if !almostEqual(stats.Sum(sw), 50, 1e-12) {
		t.Errorf("stripe weights %v do not conserve total", sw)
	}
}

func TestStripesMatchTargetsWithinOneColumn(t *testing.T) {
	rng := stats.NewRNG(5)
	w := make([]float64, 200)
	maxCol := 0.0
	for i := range w {
		w[i] = rng.Uniform(0, 10)
		if w[i] > maxCol {
			maxCol = w[i]
		}
	}
	targets := []float64{10, 30, 20, 40} // rescaled internally
	bounds := Stripes(w, targets)
	if err := Validate(bounds, 200); err != nil {
		t.Fatal(err)
	}
	total := stats.Sum(w)
	sw := StripeWeights(w, bounds)
	tSum := stats.Sum(targets)
	cumErr := 0.0
	for i := range targets {
		cumErr += sw[i] - targets[i]*total/tSum
		if math.Abs(cumErr) > maxCol {
			t.Errorf("stripe %d cumulative error %v exceeds one column (%v)", i, cumErr, maxCol)
		}
	}
}

func TestStripesZeroTargetGetsNearNothing(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1, 1}
	bounds := Stripes(w, []float64{0, 3, 3})
	sw := StripeWeights(w, bounds)
	if sw[0] > 1 {
		t.Errorf("zero-target stripe got weight %v (bounds %v)", sw[0], bounds)
	}
}

func TestStripesEmptyDomain(t *testing.T) {
	bounds := Stripes(nil, EvenTargets(0, 3))
	if err := Validate(bounds, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStripesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"noTargets":      func() { Stripes([]float64{1}, nil) },
		"negativeWeight": func() { Stripes([]float64{-1}, []float64{1}) },
		"negativeTarget": func() { Stripes([]float64{1}, []float64{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]int{0, 5, 10}, 10); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
	if err := Validate([]int{0, 5}, 10); err == nil {
		t.Error("short coverage accepted")
	}
	if err := Validate([]int{1, 5, 10}, 10); err == nil {
		t.Error("bounds not starting at 0 accepted")
	}
	if err := Validate([]int{0, 7, 5, 10}, 10); err == nil {
		t.Error("non-monotone bounds accepted")
	}
	if err := Validate([]int{0}, 0); err == nil {
		t.Error("single-entry bounds accepted")
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{10, 10, 10}); got != 0 {
		t.Errorf("perfect balance imbalance = %v", got)
	}
	if got := Imbalance([]float64{20, 10, 0}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("imbalance = %v, want 1 (max 20 / mean 10)", got)
	}
	if Imbalance(nil) != 0 || Imbalance([]float64{0, 0}) != 0 {
		t.Error("degenerate imbalance should be 0")
	}
}

func TestOwnerOf(t *testing.T) {
	bounds := []int{0, 3, 3, 7, 10} // stripe 1 is empty
	wants := map[int]int{0: 0, 2: 0, 3: 2, 6: 2, 7: 3, 9: 3}
	for col, want := range wants {
		if got := OwnerOf(bounds, col); got != want {
			t.Errorf("OwnerOf(%d) = %d, want %d", col, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-domain column should panic")
		}
	}()
	OwnerOf(bounds, 10)
}

func TestTransfers(t *testing.T) {
	oldB := []int{0, 5, 10}
	newB := []int{0, 3, 10}
	plan := Transfers(oldB, newB)
	// Columns 3..4 move from PE 0 to PE 1.
	if len(plan) != 1 {
		t.Fatalf("plan = %+v, want one transfer", plan)
	}
	tr := plan[0]
	if tr.From != 0 || tr.To != 1 || tr.Lo != 3 || tr.Hi != 5 {
		t.Errorf("transfer = %+v, want {0 1 3 5}", tr)
	}
	// Identical partitions need no transfers.
	if got := Transfers(oldB, oldB); len(got) != 0 {
		t.Errorf("identity plan should be empty, got %+v", got)
	}
}

func TestTransfersCoverEveryMovedColumnOnce(t *testing.T) {
	rng := stats.NewRNG(9)
	for trial := 0; trial < 50; trial++ {
		cols := 30 + rng.Intn(50)
		p := 2 + rng.Intn(6)
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.Uniform(0.1, 5)
		}
		oldB := Stripes(w, EvenTargets(stats.Sum(w), p))
		//

		alphas := make([]float64, p)
		alphas[rng.Intn(p)] = 0.5
		newB := Stripes(w, Targets(stats.Sum(w), alphas))
		plan := Transfers(oldB, newB)
		covered := make([]int, cols)
		for _, tr := range plan {
			if tr.From == tr.To {
				t.Fatalf("self transfer: %+v", tr)
			}
			for c := tr.Lo; c < tr.Hi; c++ {
				covered[c]++
				if OwnerOf(oldB, c) != tr.From || OwnerOf(newB, c) != tr.To {
					t.Fatalf("transfer %+v mislabels column %d", tr, c)
				}
			}
		}
		for c := 0; c < cols; c++ {
			moved := OwnerOf(oldB, c) != OwnerOf(newB, c)
			if moved && covered[c] != 1 {
				t.Fatalf("moved column %d covered %d times", c, covered[c])
			}
			if !moved && covered[c] != 0 {
				t.Fatalf("static column %d appears in plan", c)
			}
		}
	}
}

// randomBounds draws p stripes over cols columns with uniformly placed
// cuts, so repeated cuts leave empty stripes.
func randomBounds(rng *stats.RNG, cols, p int) []int {
	b := make([]int, p+1)
	b[p] = cols
	for i := 1; i < p; i++ {
		b[i] = rng.Intn(cols + 1)
	}
	sort.Ints(b)
	return b
}

// referenceTransfers is the per-column oracle of Transfers: each column's
// two owners by OwnerOf, merged into maximal runs of one (From, To) pair.
func referenceTransfers(oldB, newB []int) []Transfer {
	var plan []Transfer
	for c := 0; c < oldB[len(oldB)-1]; c++ {
		from, to := OwnerOf(oldB, c), OwnerOf(newB, c)
		if from == to {
			continue
		}
		if n := len(plan); n > 0 && plan[n-1].Hi == c && plan[n-1].From == from && plan[n-1].To == to {
			plan[n-1].Hi++
		} else {
			plan = append(plan, Transfer{From: from, To: to, Lo: c, Hi: c + 1})
		}
	}
	return plan
}

// Property: Transfers equals the per-column reference plan on random
// boundary pairs, with empty stripes, P = 1 and identical bounds among them.
func TestTransfersMatchPerColumnReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cols, p := rng.Intn(24), 1+rng.Intn(8)
		oldB := randomBounds(rng, cols, p)
		newB := oldB
		if rng.Intn(4) != 0 {
			newB = randomBounds(rng, cols, p)
		}
		return slices.Equal(Transfers(oldB, newB), referenceTransfers(oldB, newB))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransfersPanicsOnMismatchedDomains(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched domains should panic")
		}
	}()
	Transfers([]int{0, 5}, []int{0, 6})
}

func TestRecursiveBisectionEven(t *testing.T) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = 1
	}
	bounds := RecursiveBisection(w, 4)
	if err := Validate(bounds, 64); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 16, 32, 48, 64}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("RCB bounds = %v, want %v", bounds, want)
		}
	}
}

func TestRecursiveBisectionOddParts(t *testing.T) {
	w := make([]float64, 90)
	for i := range w {
		w[i] = 1
	}
	bounds := RecursiveBisection(w, 3)
	if err := Validate(bounds, 90); err != nil {
		t.Fatal(err)
	}
	sw := StripeWeights(w, bounds)
	if Imbalance(sw) > 0.1 {
		t.Errorf("RCB imbalance %v too high: %v", Imbalance(sw), sw)
	}
}

func TestRecursiveBisectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RCB with p=0 should panic")
		}
	}()
	RecursiveBisection([]float64{1}, 0)
}

// Property: stripes always form a valid partition, conserve the total
// weight, and with even targets keep imbalance below the heaviest column's
// share.
func TestStripesInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cols := 1 + rng.Intn(300)
		p := 1 + rng.Intn(16)
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.Uniform(0, 4)
		}
		bounds := Stripes(w, EvenTargets(stats.Sum(w), p))
		if Validate(bounds, cols) != nil {
			return false
		}
		sw := StripeWeights(w, bounds)
		return almostEqual(stats.Sum(sw), stats.Sum(w), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: RecursiveBisection produces valid, conserving partitions too.
func TestRCBInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cols := 1 + rng.Intn(200)
		p := 1 + rng.Intn(12)
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.Uniform(0, 4)
		}
		bounds := RecursiveBisection(w, p)
		if Validate(bounds, cols) != nil {
			return false
		}
		sw := StripeWeights(w, bounds)
		return almostEqual(stats.Sum(sw), stats.Sum(w), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEnsureMinCols(t *testing.T) {
	// Stripe 1 is empty, stripe 2 tiny.
	bounds := []int{0, 5, 5, 6, 20}
	out := EnsureMinCols(bounds, 2)
	if err := Validate(out, 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(out)-1; i++ {
		if out[i+1]-out[i] < 2 {
			t.Fatalf("stripe %d has %d columns: %v", i, out[i+1]-out[i], out)
		}
	}
	// Input is not mutated.
	if bounds[1] != 5 || bounds[2] != 5 {
		t.Error("EnsureMinCols mutated its input")
	}
	// min <= 0 is a copy.
	same := EnsureMinCols(bounds, 0)
	for i := range bounds {
		if same[i] != bounds[i] {
			t.Fatal("min=0 should copy unchanged")
		}
	}
}

func TestEnsureMinColsTightFit(t *testing.T) {
	// Exactly P*min columns: the only valid answer is even.
	bounds := []int{0, 0, 0, 0, 8}
	out := EnsureMinCols(bounds, 2)
	want := []int{0, 2, 4, 6, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("tight fit = %v, want %v", out, want)
		}
	}
}

func TestEnsureMinColsPanicsWhenImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("impossible min should panic")
		}
	}()
	EnsureMinCols([]int{0, 1, 3}, 2)
}

// Property: EnsureMinCols output is always valid with every stripe >= min,
// for feasible inputs.
func TestEnsureMinColsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := 1 + rng.Intn(10)
		min := 1 + rng.Intn(3)
		cols := p*min + rng.Intn(50)
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.Uniform(0, 3)
		}
		bounds := Stripes(w, EvenTargets(stats.Sum(w), p))
		out := EnsureMinCols(bounds, min)
		if Validate(out, cols) != nil {
			return false
		}
		for i := 0; i < p; i++ {
			if out[i+1]-out[i] < min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
