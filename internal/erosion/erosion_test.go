package erosion

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"ulba/internal/stats"
)

func testConfig(p int) Config {
	return Config{
		P:           p,
		StripeWidth: 24,
		Height:      24,
		Radius:      6,
		StrongRocks: 1,
		ProbStrong:  0.4,
		ProbWeak:    0.02,
		Seed:        7,
		FlopPerUnit: 100,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(4).Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := map[string]func(*Config){
		"P=0":          func(c *Config) { c.P = 0 },
		"width":        func(c *Config) { c.StripeWidth = 0 },
		"height":       func(c *Config) { c.Height = 0 },
		"radius0":      func(c *Config) { c.Radius = 0 },
		"radiusTooBig": func(c *Config) { c.Radius = c.StripeWidth / 2 },
		"strongNeg":    func(c *Config) { c.StrongRocks = -1 },
		"strongMany":   func(c *Config) { c.StrongRocks = c.P + 1 },
		"probHigh":     func(c *Config) { c.ProbStrong = 1.5 },
		"probNeg":      func(c *Config) { c.ProbWeak = -0.1 },
		"flop0":        func(c *Config) { c.FlopPerUnit = 0 },
	}
	for name, mutate := range bad {
		c := testConfig(4)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestCellSemantics(t *testing.T) {
	if Rock.IsFluid() || Rock.Weight() != 0 {
		t.Error("rock misclassified")
	}
	if !Fluid.IsFluid() || Fluid.Weight() != 1 {
		t.Error("fluid misclassified")
	}
	if !Refined.IsFluid() || Refined.Weight() != 4 {
		t.Error("refined misclassified")
	}
}

func TestStrongSetDeterministicAndSized(t *testing.T) {
	c := testConfig(8)
	c.StrongRocks = 3
	a := c.StrongSet()
	b := c.StrongSet()
	countA := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("strong set not deterministic")
		}
		if a[i] {
			countA++
		}
	}
	if countA != 3 {
		t.Errorf("strong count = %d, want 3", countA)
	}
	c2 := c
	c2.Seed = 12345
	d := c2.StrongSet()
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
		}
	}
	if same {
		t.Log("warning: different seed chose the same strong set (possible but unlikely)")
	}
}

func TestDiscGeometry(t *testing.T) {
	c := testConfig(3)
	d := NewDomain(c, 0, c.Width())
	// Disc centers are inside stripes: the center cell of stripe 1 is
	// rock, the stripe corner is fluid.
	cx := c.StripeWidth + c.StripeWidth/2
	cy := c.Height / 2
	if d.Cell(cx, cy) != Rock {
		t.Error("disc center should be rock")
	}
	if d.Cell(c.StripeWidth, 0) != Fluid {
		t.Error("stripe corner should be fluid")
	}
	// Rock count per stripe ~ pi*r^2 within 15%.
	want := math.Pi * float64(c.Radius) * float64(c.Radius)
	per := float64(d.RockCount()) / float64(c.P)
	if math.Abs(per-want)/want > 0.15 {
		t.Errorf("rock cells per disc = %v, want ~%v", per, want)
	}
	// Discs do not touch stripe boundaries.
	for x := 0; x < c.Width(); x += c.StripeWidth {
		for y := 0; y < c.Height; y++ {
			if d.Cell(x, y) == Rock {
				t.Fatalf("rock at stripe boundary column %d row %d", x, y)
			}
		}
	}
}

// Cell returns the state of (x, y); x must be owned.
func (d *Domain) Cell(x, y int) Cell { return d.cols[x-d.lo][y] }

// ColWeight returns the fluid workload weight of owned column x.
func (d *Domain) ColWeight(x int) float64 { return d.weights[x-d.lo] }

// Workload returns the total fluid weight of the owned range.
func (d *Domain) Workload() float64 { return stats.Sum(d.weights) }

// reindexColumn recomputes the weight and rock index of local column ci
// from its cells.
func (d *Domain) reindexColumn(ci int) {
	col := d.cols[ci]
	w := 0.0
	rocks := d.rockRows[ci][:0]
	for y, cell := range col {
		if cell == Rock {
			rocks = append(rocks, int32(y))
		} else {
			w += cell.Weight()
		}
	}
	d.weights[ci] = w
	d.rockRows[ci] = rocks
}

// cellByCell builds columns [lo, hi) the per-cell way: every cell from
// InitialCell, then each column's weight and rock index from reindexColumn.
// It is the reference the span build of NewDomain must reproduce.
func cellByCell(cfg Config, lo, hi int) *Domain {
	n := hi - lo
	d := &Domain{cfg: cfg, lo: lo, hi: hi,
		cols: make([][]Cell, n), weights: make([]float64, n), rockRows: make([][]int32, n)}
	for ci := range d.cols {
		col := make([]Cell, cfg.Height)
		for y := range col {
			col[y] = cfg.InitialCell(lo+ci, y)
		}
		d.cols[ci] = col
		d.reindexColumn(ci)
	}
	return d
}

// Property: NewDomain's span build equals the per-cell build, cell for
// cell, over random geometries. Both parities of StripeWidth and Height put
// the disc centre on a whole or a half column and row; the radius runs from
// 1 to the largest Validate accepts; column ranges start and end inside a
// disc, beside the full domain and the runner's one-stripe ranges.
func TestSpanBuildMatchesInitialCellProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2019, 18))
	// discColumn draws a column of stripe s that the disc crosses.
	discColumn := func(cfg Config, s int) int {
		cx := float64(s*cfg.StripeWidth) + float64(cfg.StripeWidth-1)/2
		first := int(math.Ceil(cx - float64(cfg.Radius)))
		last := int(math.Floor(cx + float64(cfg.Radius)))
		return first + rng.IntN(last-first+1)
	}
	for trial := range 600 {
		cfg := testConfig(1 + rng.IntN(3))
		cfg.StripeWidth = 2*(2+rng.IntN(30)) + trial%2
		cfg.Height = 2*(2+rng.IntN(30)) + trial/2%2
		cfg.Radius = 1 + rng.IntN((min(cfg.StripeWidth, cfg.Height)-1)/2)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated geometry invalid: %v", trial, err)
		}
		s0 := rng.IntN(cfg.P)
		s1 := s0 + rng.IntN(cfg.P-s0)
		lo := discColumn(cfg, s0)
		hi := max(discColumn(cfg, s1), lo) + 1
		stripe := rng.IntN(cfg.P) * cfg.StripeWidth
		for _, r := range [][2]int{{0, cfg.Width()}, {stripe, stripe + cfg.StripeWidth}, {lo, hi}} {
			got, want := NewDomain(cfg, r[0], r[1]), cellByCell(cfg, r[0], r[1])
			where := fmt.Sprintf("trial %d: W=%d H=%d r=%d range [%d, %d)",
				trial, cfg.StripeWidth, cfg.Height, cfg.Radius, r[0], r[1])
			if got.RockCount() != want.RockCount() {
				t.Fatalf("%s: %d rock cells, per-cell build has %d", where, got.RockCount(), want.RockCount())
			}
			for x := r[0]; x < r[1]; x++ {
				for y := 0; y < cfg.Height; y++ {
					if got.Cell(x, y) != cfg.InitialCell(x, y) {
						t.Fatalf("%s: cell (%d,%d) = %d, InitialCell says %d", where, x, y, got.Cell(x, y), cfg.InitialCell(x, y))
					}
				}
				if got.ColWeight(x) != want.ColWeight(x) {
					t.Fatalf("%s: column %d weight %v, per-cell build %v", where, x, got.ColWeight(x), want.ColWeight(x))
				}
				if ci := x - r[0]; !slices.Equal(got.rockRows[ci], want.rockRows[ci]) {
					t.Fatalf("%s: column %d rock rows %v, per-cell build %v", where, x, got.rockRows[ci], want.rockRows[ci])
				}
			}
		}
	}
}

func TestInitialWorkload(t *testing.T) {
	c := testConfig(2)
	d := NewDomain(c, 0, c.Width())
	cells := c.Width() * c.Height
	rocks := d.RockCount()
	if got := d.Workload(); got != float64(cells-rocks) {
		t.Errorf("initial workload = %v, want fluid cells %d", got, cells-rocks)
	}
}

func TestStepConservesCellsAndGrowsWeight(t *testing.T) {
	c := testConfig(2)
	d := NewDomain(c, 0, c.Width())
	initialRocks := d.RockCount()
	initialWork := d.Workload()
	totalEroded := 0
	for i := 0; i < 30; i++ {
		totalEroded += d.Step(i, nil, nil)
	}
	if totalEroded == 0 {
		t.Fatal("no erosion after 30 iterations of a strong disc")
	}
	if got := d.RockCount(); got != initialRocks-totalEroded {
		t.Errorf("rock accounting: %d remaining, want %d", got, initialRocks-totalEroded)
	}
	if got := d.Workload(); got != initialWork+4*float64(totalEroded) {
		t.Errorf("workload = %v, want %v", got, initialWork+4*float64(totalEroded))
	}
}

func TestOnlyBoundaryRocksErode(t *testing.T) {
	c := testConfig(1)
	d := NewDomain(c, 0, c.Width())
	d.Step(0, nil, nil)
	// After one step, the disc interior (well within the radius) must be
	// intact: interior rocks have no fluid neighbors.
	cx := c.StripeWidth / 2
	cy := c.Height / 2
	if d.Cell(cx, cy) != Rock {
		t.Error("disc core eroded in one step")
	}
	// Every eroded cell is Refined, never Fluid.
	for x := 0; x < c.Width(); x++ {
		for y := 0; y < c.Height; y++ {
			cell := d.Cell(x, y)
			if cell != Rock && cell != Fluid && cell != Refined {
				t.Fatalf("unexpected cell state %d at (%d,%d)", cell, x, y)
			}
		}
	}
}

func TestStrongDiscErodesFaster(t *testing.T) {
	c := testConfig(4)
	c.StrongRocks = 1
	strong := c.StrongSet()
	strongIdx := -1
	for i, s := range strong {
		if s {
			strongIdx = i
		}
	}
	d := NewDomain(c, 0, c.Width())
	for i := 0; i < 40; i++ {
		d.Step(i, nil, nil)
	}
	// Accumulated fluid weight per stripe.
	gains := make([]float64, c.P)
	for s := 0; s < c.P; s++ {
		for x := s * c.StripeWidth; x < (s+1)*c.StripeWidth; x++ {
			gains[s] += d.ColWeight(x)
		}
	}
	for s := 0; s < c.P; s++ {
		if s != strongIdx && gains[s] >= gains[strongIdx] {
			t.Errorf("weak stripe %d (%v) caught up with strong stripe %d (%v)",
				s, gains[s], strongIdx, gains[strongIdx])
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := testConfig(2)
	run := func() float64 {
		d := NewDomain(c, 0, c.Width())
		for i := 0; i < 20; i++ {
			d.Step(i, nil, nil)
		}
		return d.Workload()
	}
	if run() != run() {
		t.Error("identical runs diverged")
	}
}

// The critical substrate property: stepping a partitioned domain with halo
// exchange is bit-identical to stepping the full domain.
func TestPartitionIndependence(t *testing.T) {
	c := testConfig(3)
	width := c.Width()
	ref := NewDomain(c, 0, width)

	// Three parts with uneven cuts crossing disc areas.
	cuts := []int{0, c.StripeWidth/2 + 3, 2*c.StripeWidth - 5, width}
	parts := make([]*Domain, 3)
	for i := range parts {
		parts[i] = NewDomain(c, cuts[i], cuts[i+1])
	}

	const iters = 25
	for it := 0; it < iters; it++ {
		ref.Step(it, nil, nil)

		// Snapshot halos before stepping any part.
		lefts := make([][]Cell, 3)
		rights := make([][]Cell, 3)
		for i := range parts {
			if i > 0 {
				lefts[i] = parts[i-1].BoundaryColumn(false)
			}
			if i < 2 {
				rights[i] = parts[i+1].BoundaryColumn(true)
			}
		}
		for i := range parts {
			parts[i].Step(it, lefts[i], rights[i])
		}
	}

	for i, part := range parts {
		for x := part.lo; x < part.hi; x++ {
			for y := 0; y < c.Height; y++ {
				if part.Cell(x, y) != ref.Cell(x, y) {
					t.Fatalf("part %d diverged from reference at (%d,%d): %d vs %d",
						i, x, y, part.Cell(x, y), ref.Cell(x, y))
				}
			}
			if part.ColWeight(x) != ref.ColWeight(x) {
				t.Fatalf("column %d weight diverged: %v vs %v", x, part.ColWeight(x), ref.ColWeight(x))
			}
		}
	}
}

func TestBoundaryColumn(t *testing.T) {
	c := testConfig(1)
	d := NewDomain(c, 3, 8)
	left := d.BoundaryColumn(true)
	right := d.BoundaryColumn(false)
	for y := 0; y < c.Height; y++ {
		if left[y] != d.Cell(3, y) {
			t.Fatal("left boundary wrong")
		}
		if right[y] != d.Cell(7, y) {
			t.Fatal("right boundary wrong")
		}
	}
	// Mutating the copy must not affect the domain.
	left[0] = Refined
	if d.Cell(3, 0) == Refined && c.InitialCell(3, 0) != Refined {
		t.Error("BoundaryColumn aliases internal state")
	}
	empty := NewDomain(c, 5, 5)
	if empty.BoundaryColumn(true) != nil {
		t.Error("empty domain boundary should be nil")
	}
}

func TestEventualErosionOfStrongDisc(t *testing.T) {
	c := testConfig(1)
	c.StrongRocks = 1 // the only disc is strong
	d := NewDomain(c, 0, c.Width())
	initial := d.RockCount()
	for i := 0; i < 400 && d.RockCount() > 0; i++ {
		d.Step(i, nil, nil)
	}
	if d.RockCount() > initial/10 {
		t.Errorf("strong disc should mostly erode: %d of %d rocks left", d.RockCount(), initial)
	}
	// Workload must reflect every conversion.
	cells := float64(c.Width() * c.Height)
	want := cells - float64(initial) + 4*float64(initial-d.RockCount())
	if d.Workload() != want {
		t.Errorf("workload = %v, want %v", d.Workload(), want)
	}
}

// Property: a no-fluid-neighbor rock never erodes; probability 0 discs never
// erode at all.
func TestNoErosionWithZeroProbabilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := testConfig(2)
		c.Seed = seed
		c.ProbStrong = 0
		c.ProbWeak = 0
		d := NewDomain(c, 0, c.Width())
		before := d.RockCount()
		for i := 0; i < 5; i++ {
			if d.Step(i, nil, nil) != 0 {
				return false
			}
		}
		return d.RockCount() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: with probability 1, every rock with at least one fluid neighbor
// erodes every step — the erosion front advances one cell per iteration.
func TestCertainErosionProperty(t *testing.T) {
	c := testConfig(1)
	c.ProbStrong = 1
	c.ProbWeak = 1
	d := NewDomain(c, 0, c.Width())
	for i := 0; i < 3; i++ {
		eroded := d.Step(i, nil, nil)
		if eroded == 0 && d.RockCount() > 0 {
			t.Fatalf("iteration %d: no erosion despite probability 1", i)
		}
	}
}

// stepParts steps the parts of a partitioned domain by one iteration, each
// reading its neighbours' boundary columns from before the step, and
// returns how many cells each part eroded.
func stepParts(parts []*Domain, iter int) []int {
	lefts := make([][]Cell, len(parts))
	rights := make([][]Cell, len(parts))
	for k := 1; k < len(parts); k++ {
		lefts[k] = parts[k-1].BoundaryColumn(false)
		rights[k-1] = parts[k].BoundaryColumn(true)
	}
	eroded := make([]int, len(parts))
	for k, part := range parts {
		eroded[k] = part.Step(iter, lefts[k], rights[k])
	}
	return eroded
}

// Property: a trace read part by part gives, at every iteration, each
// column weight and each part's eroded count of the partitioned Domains
// stepped with halos, over random geometries (both parities of StripeWidth
// and Height), PE counts, iteration counts and cuts; and block counts 1-4,
// stepped on one to three goroutines, build the same trace.
func TestTraceMatchesPartitionedDomainsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2019, 28))
	for trial := range 150 {
		cfg := testConfig(1 + rng.IntN(6))
		cfg.StripeWidth = 2*(2+rng.IntN(12)) + trial%2
		cfg.Height = 2*(2+rng.IntN(12)) + trial/2%2
		cfg.Radius = 1 + rng.IntN((min(cfg.StripeWidth, cfg.Height)-1)/2)
		cfg.StrongRocks = rng.IntN(cfg.P + 1)
		cfg.ProbWeak = 0.3 * rng.Float64()
		cfg.Seed = rng.Uint64()
		iters := 1 + rng.IntN(40)
		width := cfg.Width()
		where := fmt.Sprintf("trial %d: P=%d W=%d H=%d r=%d iters=%d",
			trial, cfg.P, cfg.StripeWidth, cfg.Height, cfg.Radius, iters)

		tr := buildTrace(cfg, iters, 1, 1)
		for nb := 2; nb <= 4; nb++ {
			other := buildTrace(cfg, iters, nb, 1+nb%3)
			if !slices.Equal(other.initial, tr.initial) || !slices.Equal(other.eroded, tr.eroded) ||
				!slices.Equal(other.ends, tr.ends) {
				t.Fatalf("%s: %d blocks build another trace than one block", where, nb)
			}
		}

		cuts := []int{0, width}
		for _, c := range rng.Perm(width - 1)[:rng.IntN(min(cfg.P+2, width))] {
			cuts = append(cuts, c+1)
		}
		slices.Sort(cuts)
		parts := make([]*Domain, len(cuts)-1)
		weights := make([][]float64, len(parts))
		for k := range parts {
			parts[k] = NewDomain(cfg, cuts[k], cuts[k+1])
			weights[k] = tr.Weights(cuts[k], cuts[k+1])
		}
		for i := range iters {
			eroded := stepParts(parts, i)
			for k, part := range parts {
				if n := tr.Advance(i, cuts[k], weights[k]); n != eroded[k] {
					t.Fatalf("%s: iteration %d, part [%d, %d): trace erodes %d cells, domain %d",
						where, i, cuts[k], cuts[k+1], n, eroded[k])
				}
				if !slices.Equal(weights[k], part.weights) {
					t.Fatalf("%s: iteration %d, part [%d, %d): trace weights %v, domain %v",
						where, i, cuts[k], cuts[k+1], weights[k], part.weights)
				}
			}
		}
	}
}

func TestNewTrace(t *testing.T) {
	c := testConfig(3)
	tr, err := NewTrace(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config() != c || tr.Iterations() != 12 {
		t.Errorf("trace of %+v over %d iterations, want %+v over 12", tr.Config(), tr.Iterations(), c)
	}
	ref := NewDomain(c, 0, c.Width())
	w := tr.Weights(0, c.Width())
	for i := range 12 {
		if n, want := tr.Advance(i, 0, w), ref.Step(i, nil, nil); n != want {
			t.Fatalf("iteration %d: trace erodes %d cells, whole domain %d", i, n, want)
		}
	}
	if !slices.Equal(w, ref.weights) {
		t.Error("trace weights diverged from the whole domain's")
	}
	if w := tr.Weights(0, 2); &w[0] == &tr.initial[0] {
		t.Error("Weights aliases the trace")
	}

	bad := c
	bad.Radius = 0
	if _, err := NewTrace(bad, 12); err == nil {
		t.Error("trace of an invalid instance built")
	}
	if _, err := NewTrace(c, 0); err == nil {
		t.Error("trace of zero iterations built")
	}
}
