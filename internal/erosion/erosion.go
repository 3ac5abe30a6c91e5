// Package erosion implements the numerical-study application of Section IV-B
// of the paper: a 2D fluid model with non-uniform erosion of immersed rocks.
//
// The domain is a (P * StripeWidth) x Height mesh of cells. Each of the P
// stripes initially contains one rock: a disc of rock cells. A small number
// of discs are strongly erodible (erosion probability 0.4), the rest weakly
// (0.02); which discs are strong is chosen from the seed and is "not known
// in advance" by the partitioning. Fluid cells carry computational work
// (FlopPerUnit FLOP per weight unit per iteration), rock cells none. When a
// rock cell is eroded it converts into four fluid cells of smaller size — a
// mesh-refinement step modeled as one cell of weight 4 — so workload grows
// fastest around strongly erodible rocks and the PEs owning those stripes
// overload.
//
// All randomness is counter-based: the erosion decision for cell (x, y) at
// iteration i is a pure function of (seed, i, x, y). The physical evolution
// is therefore bit-identical no matter how the domain is partitioned or
// which LB policy moves columns between PEs, which makes policy comparisons
// noise-free and enables an exact distributed-versus-sequential test.
//
// It also means the physics need only be computed once per instance. A
// Domain steps the cells of one column range, given its neighbours'
// boundary columns as halos; NewTrace steps the whole mesh as one Domain
// per stripe, in parallel, and records the result as a Trace: the initial
// column weights and, per iteration, the columns where cells eroded. The
// LB runner reads every run's column weights from the trace.
package erosion

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ulba/internal/stats"
)

// Cell encodes the state of one mesh cell: Rock carries no workload; a
// fluid cell's value is its workload weight (1 for original fluid, 4 for
// the four refined cells born from an eroded rock cell).
type Cell uint8

// Cell states.
const (
	Rock    Cell = 0
	Fluid   Cell = 1
	Refined Cell = 4
)

// IsFluid reports whether the cell carries fluid (and thus workload).
func (c Cell) IsFluid() bool { return c != Rock }

// Weight returns the cell's workload weight in work units.
func (c Cell) Weight() float64 { return float64(c) }

// Config describes one application instance.
type Config struct {
	P           int     // number of stripes (and discs); the paper uses one per PE
	StripeWidth int     // columns per initial stripe (paper: 1000)
	Height      int     // rows (paper: 1000)
	Radius      int     // disc radius in cells (paper: 250)
	StrongRocks int     // number of strongly erodible discs (paper: 1..3)
	ProbStrong  float64 // erosion probability of strong discs (paper: 0.4)
	ProbWeak    float64 // erosion probability of weak discs (paper: 0.02)
	Seed        uint64
	FlopPerUnit float64 // FLOP per fluid weight unit per iteration
	// CellBytes is the wire size of one cell's state in bytes, used to
	// charge halo exchanges and migrations realistically: the in-memory
	// representation is one byte per cell, but the modeled CFD cell
	// carries a full state vector (the paper's fluid cells compute a
	// fluid model, so tens of bytes each). Zero defaults to 1.
	CellBytes int
}

// WireBytesPerCell returns the modeled wire size of one cell.
func (c Config) WireBytesPerCell() int {
	if c.CellBytes <= 0 {
		return 1
	}
	return c.CellBytes
}

// DefaultConfig returns a laptop-scale instance preserving the paper's
// geometry ratios (radius = width/4, square-ish stripes, probabilities 0.4
// and 0.02). The paper's full scale is StripeWidth = Height = 1000,
// Radius = 250.
func DefaultConfig(p int) Config {
	return Config{
		P:           p,
		StripeWidth: 192,
		Height:      400,
		Radius:      48,
		StrongRocks: 1,
		ProbStrong:  0.4,
		ProbWeak:    0.02,
		Seed:        2,
		FlopPerUnit: 100,
		CellBytes:   8,
	}
}

// Validate checks geometric and probabilistic sanity.
func (c Config) Validate() error {
	switch {
	case c.P <= 0:
		return fmt.Errorf("erosion: P = %d must be positive", c.P)
	case c.StripeWidth <= 0 || c.Height <= 0:
		return fmt.Errorf("erosion: empty domain %dx%d", c.StripeWidth, c.Height)
	case c.Radius <= 0:
		return fmt.Errorf("erosion: radius %d must be positive", c.Radius)
	case 2*c.Radius >= c.StripeWidth || 2*c.Radius >= c.Height:
		return fmt.Errorf("erosion: disc (r=%d) does not fit inside a %dx%d stripe",
			c.Radius, c.StripeWidth, c.Height)
	case c.StrongRocks < 0 || c.StrongRocks > c.P:
		return fmt.Errorf("erosion: StrongRocks = %d out of [0, %d]", c.StrongRocks, c.P)
	case c.ProbStrong < 0 || c.ProbStrong > 1 || c.ProbWeak < 0 || c.ProbWeak > 1:
		return fmt.Errorf("erosion: probabilities out of range: %g, %g", c.ProbStrong, c.ProbWeak)
	case c.FlopPerUnit <= 0:
		return fmt.Errorf("erosion: FlopPerUnit = %g must be positive", c.FlopPerUnit)
	case c.CellBytes < 0:
		return fmt.Errorf("erosion: CellBytes = %d must be non-negative", c.CellBytes)
	}
	return nil
}

// Width returns the total number of columns, P * StripeWidth.
func (c Config) Width() int { return c.P * c.StripeWidth }

// StrongSet returns, per disc index, whether the disc is strongly erodible.
// The choice is a seeded permutation: deterministic, but "not known in
// advance" to the partitioning logic (it never reads this).
func (c Config) StrongSet() []bool {
	strong := make([]bool, c.P)
	rng := stats.NewRNG(c.Seed ^ 0x5bd1e995)
	perm := rng.Perm(c.P)
	for i := 0; i < c.StrongRocks && i < c.P; i++ {
		strong[perm[i]] = true
	}
	return strong
}

// DiscOf returns the disc (stripe) index containing column x.
func (c Config) DiscOf(x int) int { return x / c.StripeWidth }

// InDisc reports whether cell (x, y) lies inside its stripe's rock disc.
func (c Config) InDisc(x, y int) bool {
	s := c.DiscOf(x)
	cx := float64(s)*float64(c.StripeWidth) + float64(c.StripeWidth)/2 - 0.5
	cy := float64(c.Height)/2 - 0.5
	dx := float64(x) - cx
	dy := float64(y) - cy
	r := float64(c.Radius)
	return dx*dx+dy*dy <= r*r
}

// InitialCell returns the state of cell (x, y) at iteration 0. NewDomain
// builds whole columns from discSpan instead; InitialCell is the per-cell
// reference it must agree with.
func (c Config) InitialCell(x, y int) Cell {
	if c.InDisc(x, y) {
		return Rock
	}
	return Fluid
}

// discSpan returns the rows [y0, y1) of column x that InDisc accepts. The
// disc is convex, so they form one run around the disc's centre row. A
// square root places both ends with a row of margin, so the run lies
// inside [y0, y1) however the root rounds; the InDisc inequality itself
// then trims each end to the run's first and last rows. A column the disc
// misses yields an empty run.
func (c Config) discSpan(x int) (y0, y1 int) {
	dx := float64(x) - (float64(c.DiscOf(x))*float64(c.StripeWidth) + float64(c.StripeWidth)/2 - 0.5)
	r := float64(c.Radius)
	if dx*dx > r*r {
		return 0, 0
	}
	cy := float64(c.Height)/2 - 0.5
	half := math.Sqrt(r*r - dx*dx)
	y0 = max(int(math.Ceil(cy-half))-1, 0)
	y1 = min(int(math.Floor(cy+half))+2, c.Height)
	for y0 < y1 && !c.InDisc(x, y0) {
		y0++
	}
	for y1 > y0 && !c.InDisc(x, y1-1) {
		y1--
	}
	return y0, y1
}

// erodes reports the counter-based erosion decision for rock cell (x, y)
// with k fluid neighbors at iteration iter under the instance seed, where
// prob is its disc's per-neighbor erosion probability. Each fluid neighbor
// independently attempts to erode the cell: P(erode) = 1 - (1-prob)^k.
func erodes(seed uint64, iter, x, y, k int, prob float64) bool {
	if k <= 0 {
		return false
	}
	q := 1.0
	for i := 0; i < k; i++ {
		q *= 1 - prob
	}
	return stats.HashUniform(seed, uint64(iter), uint64(x), uint64(y)) < 1-q
}

// Domain holds the contiguous column range [lo, hi) of one block of the
// mesh, with incremental per-column workload weights and rock-cell indices
// so an iteration costs O(rock cells) rather than O(all cells).
type Domain struct {
	cfg      Config
	probs    []float64 // per-disc erosion probability
	lo, hi   int
	cols     [][]Cell
	weights  []float64 // per local column: sum of fluid weights
	rockRows [][]int32 // per local column: sorted rows of remaining rock cells
	erode    []colRow  // the cells the last Step eroded, in ascending column order
}

// colRow addresses one cell by local column index and row.
type colRow struct {
	ci int
	y  int32
}

// NewDomain builds the initial state of columns [lo, hi). A full-domain
// instance (lo = 0, hi = cfg.Width()) doubles as the sequential reference.
//
// Each column is built from its disc span rather than cell by cell: the
// column starts as fluid, the run discSpan returns becomes rock, and the
// column's weight and rock index follow from the run's length. The owned
// columns share one cell array.
func NewDomain(cfg Config, lo, hi int) *Domain {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if lo < 0 || hi > cfg.Width() || lo > hi {
		panic(fmt.Sprintf("erosion: column range [%d, %d) outside domain of width %d", lo, hi, cfg.Width()))
	}
	d := &Domain{cfg: cfg, lo: lo, hi: hi}
	d.probs = make([]float64, cfg.P)
	for s, strong := range cfg.StrongSet() {
		if strong {
			d.probs[s] = cfg.ProbStrong
		} else {
			d.probs[s] = cfg.ProbWeak
		}
	}
	n, h := hi-lo, cfg.Height
	cells := make([]Cell, n*h)
	for i := range cells {
		cells[i] = Fluid
	}
	d.cols = make([][]Cell, n)
	d.weights = make([]float64, n)
	d.rockRows = make([][]int32, n)
	for ci := range d.cols {
		col := cells[ci*h : (ci+1)*h : (ci+1)*h]
		y0, y1 := cfg.discSpan(lo + ci)
		rocks := make([]int32, y1-y0)
		for i := range rocks {
			rocks[i] = int32(y0 + i)
			col[y0+i] = Rock
		}
		d.cols[ci] = col
		d.weights[ci] = float64(h - len(rocks))
		d.rockRows[ci] = rocks
	}
	return d
}

// RockCount returns the number of remaining rock cells in the owned range.
func (d *Domain) RockCount() int {
	n := 0
	for _, rocks := range d.rockRows {
		n += len(rocks)
	}
	return n
}

// BoundaryColumn returns a copy of the first (left = true) or last owned
// column, the payload of a halo exchange.
func (d *Domain) BoundaryColumn(left bool) []Cell {
	if len(d.cols) == 0 {
		return nil
	}
	var src []Cell
	if left {
		src = d.cols[0]
	} else {
		src = d.cols[len(d.cols)-1]
	}
	return append([]Cell(nil), src...)
}

// Step advances the owned range by one erosion iteration. left and right
// are the halo columns (lo-1 and hi), nil at physical domain boundaries
// (outside cells are treated as non-fluid). It returns the number of rock
// cells eroded. Decisions read only the pre-step state, so stepping the
// stripes of a partition in any order is equivalent to stepping the whole
// domain at once.
func (d *Domain) Step(iter int, left, right []Cell) int {
	erodeList := d.erode[:0]
	h := d.cfg.Height
	for ci, rocks := range d.rockRows {
		if len(rocks) == 0 {
			continue
		}
		x := d.lo + ci
		prob := d.probs[d.cfg.DiscOf(x)]
		col := d.cols[ci]
		var lcol, rcol []Cell
		if ci > 0 {
			lcol = d.cols[ci-1]
		} else {
			lcol = left
		}
		if ci+1 < len(d.cols) {
			rcol = d.cols[ci+1]
		} else {
			rcol = right
		}
		for _, y := range rocks {
			k := 0
			if lcol != nil && lcol[y].IsFluid() {
				k++
			}
			if rcol != nil && rcol[y].IsFluid() {
				k++
			}
			if y > 0 && col[y-1].IsFluid() {
				k++
			}
			if int(y) < h-1 && col[y+1].IsFluid() {
				k++
			}
			if k > 0 && erodes(d.cfg.Seed, iter, x, int(y), k, prob) {
				erodeList = append(erodeList, colRow{ci: ci, y: y})
			}
		}
	}
	// Apply after the full scan: double-buffer semantics. The scan emits
	// hits in ascending ci order, so consecutive-duplicate skipping visits
	// each touched column exactly once — no set needed.
	for _, e := range erodeList {
		d.cols[e.ci][e.y] = Refined
		d.weights[e.ci] += Refined.Weight()
	}
	prev := -1
	for _, e := range erodeList {
		if e.ci == prev {
			continue
		}
		prev = e.ci
		rocks := d.rockRows[e.ci][:0]
		for _, y := range d.rockRows[e.ci] {
			if d.cols[e.ci][y] == Rock {
				rocks = append(rocks, y)
			}
		}
		d.rockRows[e.ci] = rocks
	}
	d.erode = erodeList
	return len(erodeList)
}

// Trace is the physical evolution of one instance over a run, computed
// once: the initial fluid weight of every column, then, per iteration, the
// column of every rock cell that eroded. Each eroded cell adds Refined's
// weight to its column. Because the randomness is counter-based, this
// evolution is the same under every partition and every LB policy, so a
// run reads its column weights from the trace instead of stepping cells.
// A Trace takes O(width + eroded cells) memory and is safe for concurrent
// readers.
type Trace struct {
	cfg     Config
	initial []float64 // per column: fluid weight at iteration 0
	eroded  []int32   // columns of the eroded cells, iteration by iteration, ascending within one
	ends    []int     // ends[i]: end of iteration i's columns in eroded
}

// NewTrace computes the evolution of cfg over the given number of
// iterations. Every iteration steps the mesh as one Domain per initial
// stripe, each given its neighbours' boundary columns from before the step
// as halos, on one goroutine per processor (GOMAXPROCS, at most cfg.P)
// that claims stripes until none is left. Partition independence makes the
// trace the same for every block count and every order of stepping.
func NewTrace(cfg Config, iterations int) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("erosion: a trace needs a positive iteration count, got %d", iterations)
	}
	return buildTrace(cfg, iterations, cfg.P, min(runtime.GOMAXPROCS(0), cfg.P)), nil
}

// buildTrace steps the domain of a valid cfg as nb contiguous column blocks
// (at most one per column) on the given number of goroutines. Blocks are
// claimed one at a time, so a goroutine whose blocks erode little takes
// over more of them instead of waiting for the others.
func buildTrace(cfg Config, iterations, nb, workers int) *Trace {
	width := cfg.Width()
	nb = min(nb, width)
	t := &Trace{cfg: cfg, initial: make([]float64, 0, width), ends: make([]int, iterations)}
	blocks := make([]*Domain, nb)
	for b := range blocks {
		blocks[b] = NewDomain(cfg, b*width/nb, (b+1)*width/nb)
		t.initial = append(t.initial, blocks[b].weights...)
	}
	lefts := make([][]Cell, nb)
	rights := make([][]Cell, nb)
	var wg sync.WaitGroup
	for i := range iterations {
		for b := 1; b < nb; b++ {
			lefts[b] = blocks[b-1].BoundaryColumn(false)
			rights[b-1] = blocks[b].BoundaryColumn(true)
		}
		var next atomic.Int64
		step := func() {
			for b := int(next.Add(1) - 1); b < nb; b = int(next.Add(1) - 1) {
				blocks[b].Step(i, lefts[b], rights[b])
			}
		}
		for range workers - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				step()
			}()
		}
		step()
		wg.Wait()
		for _, d := range blocks {
			for _, e := range d.erode {
				t.eroded = append(t.eroded, int32(d.lo+e.ci))
			}
		}
		t.ends[i] = len(t.eroded)
	}
	return t
}

// Config returns the instance the trace evolves.
func (t *Trace) Config() Config { return t.cfg }

// Iterations returns the number of iterations the trace covers.
func (t *Trace) Iterations() int { return len(t.ends) }

// Weights returns a fresh copy of the initial weights of columns [lo, hi).
func (t *Trace) Weights(lo, hi int) []float64 {
	return append([]float64(nil), t.initial[lo:hi]...)
}

// Advance applies iteration iter to w, the weights of columns
// [lo, lo+len(w)): every cell eroded there adds Refined's weight to its
// column. It returns the number of those cells.
func (t *Trace) Advance(iter, lo int, w []float64) int {
	start := 0
	if iter > 0 {
		start = t.ends[iter-1]
	}
	cols := t.eroded[start:t.ends[iter]]
	first, _ := slices.BinarySearch(cols, int32(lo))
	n := 0
	for _, x := range cols[first:] {
		if int(x)-lo >= len(w) {
			break
		}
		w[int(x)-lo] += Refined.Weight()
		n++
	}
	return n
}
