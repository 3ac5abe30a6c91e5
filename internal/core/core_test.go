package core

import (
	"math"
	"testing"
	"testing/quick"

	"ulba/internal/gossip"
	"ulba/internal/stats"
)

func TestMonitorLinearWIR(t *testing.T) {
	m := NewMonitor(8)
	if _, ok := m.WIR(); ok {
		t.Error("empty monitor should have no WIR")
	}
	for i := 0; i < 10; i++ {
		m.Record(i, 100+3.5*float64(i))
	}
	wir, ok := m.WIR()
	if !ok || math.Abs(wir-3.5) > 1e-9 {
		t.Errorf("WIR = %v (ok=%v), want 3.5", wir, ok)
	}
	if len(m.iters) != 8 {
		t.Errorf("window holds %d samples, want 8 (capacity)", len(m.iters))
	}
}

func TestMonitorSlidingWindowTracksChange(t *testing.T) {
	m := NewMonitor(5)
	// Rate 1 for a while, then rate 10: the window must converge to 10.
	it := 0
	load := 0.0
	for ; it < 20; it++ {
		load += 1
		m.Record(it, load)
	}
	for ; it < 40; it++ {
		load += 10
		m.Record(it, load)
	}
	wir, _ := m.WIR()
	if math.Abs(wir-10) > 1e-9 {
		t.Errorf("windowed WIR = %v, want 10", wir)
	}
}

// A non-finite sample makes the fit invalid: the monitor reports no WIR
// rather than an infinite one.
func TestMonitorNonFiniteSampleHasNoWIR(t *testing.T) {
	m := NewMonitor(4)
	m.Record(0, 1)
	m.Record(1, math.Inf(1))
	if wir, ok := m.WIR(); ok {
		t.Errorf("WIR = %v from a non-finite sample, want none", wir)
	}
}

// TestMonitorRecordSlidesInPlace pins the full window: recording into it
// allocates nothing, and the window holds the latest samples oldest first,
// so the WIR is the regression over exactly those samples.
func TestMonitorRecordSlidesInPlace(t *testing.T) {
	const window = 8
	m := NewMonitor(window)
	load := func(i int) float64 { return 100 + 0.25*float64(i*i%37) }
	it := 0
	for ; it < window; it++ {
		m.Record(it, load(it))
	}
	// AllocsPerRun truncates to whole allocations per run, so each run
	// records 100 samples.
	allocs := testing.AllocsPerRun(10, func() {
		for k := 0; k < 100; k++ {
			m.Record(it, load(it))
			it++
		}
	})
	if allocs != 0 {
		t.Fatalf("recording 100 samples into a full window allocates %v times, want 0", allocs)
	}
	var iters, loads []float64
	for i := it - window; i < it; i++ {
		iters = append(iters, float64(i))
		loads = append(loads, load(i))
	}
	got, ok := m.WIR()
	if want := stats.LinearRegression(iters, loads); !ok || got != want.Slope {
		t.Fatalf("WIR = %v (ok %v), want the slope %v over the last %d samples", got, ok, want.Slope, window)
	}
}

// Tiny worlds still need two known WIRs before the z-score means anything.
func TestDetectorMinKnownFloor(t *testing.T) {
	for _, size := range []int{1, 2} {
		if got := NewDetector(size).MinKnown; got != 2 {
			t.Errorf("NewDetector(%d).MinKnown = %d, want 2", size, got)
		}
	}
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor(4)
	m.Record(0, 1)
	m.Record(1, 2)
	m.Reset()
	if len(m.iters) != 0 {
		t.Error("Reset did not clear samples")
	}
	if _, ok := m.WIR(); ok {
		t.Error("WIR available after reset")
	}
}

func TestMonitorMinimumWindow(t *testing.T) {
	m := NewMonitor(0) // clamps to 2
	m.Record(0, 5)
	m.Record(1, 7)
	wir, ok := m.WIR()
	if !ok || math.Abs(wir-2) > 1e-9 {
		t.Errorf("WIR = %v, want 2", wir)
	}
}

func fillDB(size int, outlier int, outlierWIR float64) *gossip.DB {
	db := gossip.NewDB(0, size)
	for r := 0; r < size; r++ {
		wir := 1.0
		if r == outlier {
			wir = outlierWIR
		}
		db.Update(r, wir, 0)
	}
	return db
}

func TestDetectorFindsOutlier(t *testing.T) {
	det := NewDetector(32)
	db := fillDB(32, 5, 50)
	if !det.Overloading(db, 5) {
		t.Error("outlier not detected")
	}
	if det.Overloading(db, 0) {
		t.Error("inlier misclassified")
	}
	if got := det.CountOverloading(db); got != 1 {
		t.Errorf("CountOverloading = %d, want 1", got)
	}
}

func TestDetectorRequiresEnoughEntries(t *testing.T) {
	det := NewDetector(32) // MinKnown = 17
	db := gossip.NewDB(0, 32)
	for r := 0; r < 10; r++ { // only 10 known
		db.Update(r, 1, 0)
	}
	db.Update(3, 100, 0)
	if det.Overloading(db, 3) {
		t.Error("detector fired with an immature database")
	}
	if det.CountOverloading(db) != 0 {
		t.Error("count should be 0 with immature database")
	}
}

func TestDetectorUniformPopulation(t *testing.T) {
	det := NewDetector(16)
	db := fillDB(16, -1, 0) // all equal
	for r := 0; r < 16; r++ {
		if det.Overloading(db, r) {
			t.Fatalf("uniform population flagged rank %d", r)
		}
	}
}

func TestFixedAlpha(t *testing.T) {
	if FixedAlpha(0.4).Alpha(100, 3) != 0.4 {
		t.Error("fixed alpha should ignore estimates")
	}
}

func TestAdaptiveAlphaShrinksWithN(t *testing.T) {
	a := DefaultAdaptiveAlpha()
	few := a.Alpha(256, 3)   // ~1% overloading
	many := a.Alpha(256, 51) // ~20%
	if few <= many {
		t.Errorf("adaptive alpha should shrink with N: %v vs %v", few, many)
	}
	if few > a.Max || many < 0 {
		t.Errorf("alpha out of range: %v, %v", few, many)
	}
	// Degenerate estimates fall back to Max.
	if a.Alpha(10, 0) != a.Max || a.Alpha(10, 10) != a.Max {
		t.Error("degenerate N should return Max")
	}
	// The overhead law: alpha*N/(P-N) <= Budget (when below the cap).
	p, n := 256, 51
	if got := a.Alpha(p, n) * float64(n) / float64(p-n); got > a.Budget+1e-12 {
		t.Errorf("overhead ratio %v exceeds budget %v", got, a.Budget)
	}
}

func TestOverheadSeconds(t *testing.T) {
	// Eq. 11 with the paper's symbols: alpha*N/(P-N) * Wtot/(omega*P).
	got := OverheadSeconds(0.5, 256, 25, 2.56e11, 1e9)
	want := 0.5 * 25.0 / 231.0 * 2.56e11 / (1e9 * 256)
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("overhead = %v, want %v", got, want)
	}
	if OverheadSeconds(0, 256, 25, 1e11, 1e9) != 0 {
		t.Error("alpha=0 must have zero overhead")
	}
	if OverheadSeconds(0.5, 256, 0, 1e11, 1e9) != 0 {
		t.Error("n=0 must have zero overhead")
	}
	if OverheadSeconds(0.5, 4, 4, 1e11, 1e9) != 0 {
		t.Error("n=p must have zero overhead")
	}
}

func TestControllerLifecycle(t *testing.T) {
	const size = 16
	ctrl := NewController(3, size, 8, NewDetector(size), FixedAlpha(0.4))
	// Feed a fast-growing workload into rank 3 and slow entries into the
	// database for everyone else.
	for i := 0; i < 10; i++ {
		ctrl.Record(i, 1000+50*float64(i))
	}
	if e, ok := ctrl.DB().Get(3); !ok || e.Value != ctrl.WIR() || ctrl.DB().KnownCount() != 1 {
		t.Errorf("controller DB holds %+v (ok=%v), want only its own rank 3 WIR %v", e, ok, ctrl.WIR())
	}
	for r := 0; r < size; r++ {
		if r != 3 {
			ctrl.DB().Update(r, 1.0, 9)
		}
	}
	if !ctrl.Overloading() {
		t.Fatalf("controller should detect itself overloading (WIR=%v)", ctrl.WIR())
	}
	if got := ctrl.AlphaForLB(); got != 0.4 {
		t.Errorf("AlphaForLB = %v, want 0.4", got)
	}
	if got := ctrl.OverloadingCount(); got != 1 {
		t.Errorf("OverloadingCount = %d, want 1", got)
	}
	ctrl.AfterLB()
	if ctrl.WIR() != 0 {
		t.Error("WIR should be unavailable right after LB reset")
	}
	// Not overloading => alpha 0.
	ctrl2 := NewController(0, size, 8, NewDetector(size), FixedAlpha(0.4))
	for i := 0; i < 10; i++ {
		ctrl2.Record(i, 1000+1*float64(i))
	}
	for r := 1; r < size; r++ {
		ctrl2.DB().Update(r, 1.0, 9)
	}
	if got := ctrl2.AlphaForLB(); got != 0 {
		t.Errorf("non-overloading PE requested alpha %v", got)
	}
}

func TestControllerPanicsOnNilPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil policy should panic")
		}
	}()
	NewController(0, 4, 8, NewDetector(4), nil)
}

func TestControllerPanicsOnBadPolicyValue(t *testing.T) {
	ctrl := NewController(0, 12, 4, Detector{ZThreshold: 0.5, MinKnown: 2}, FixedAlpha(1.5))
	for i := 0; i < 6; i++ {
		ctrl.Record(i, float64(100*i)) // strong growth
	}
	for r := 1; r < 12; r++ {
		ctrl.DB().Update(r, 0, 5)
	}
	if !ctrl.Overloading() {
		t.Skip("detector did not fire; cannot exercise policy validation")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid policy alpha should panic")
		}
	}()
	ctrl.AlphaForLB()
}

// Property: the monitor recovers the exact rate of any linear series
// regardless of window size and offset.
func TestMonitorRecoversRateProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		window := 2 + rng.Intn(20)
		rate := rng.Uniform(-100, 100)
		w0 := rng.Uniform(0, 1e6)
		m := NewMonitor(window)
		for i := 0; i < window+rng.Intn(30); i++ {
			m.Record(i, w0+rate*float64(i))
		}
		wir, ok := m.WIR()
		return ok && math.Abs(wir-rate) < 1e-6*(1+math.Abs(rate))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: adaptive alpha never exceeds Max nor goes negative, and its
// overhead ratio never exceeds Budget when n is in (0, p).
func TestAdaptiveAlphaBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := AdaptiveAlpha{Budget: rng.Uniform(0.001, 0.1), Max: rng.Uniform(0.1, 1)}
		p := 2 + rng.Intn(2048)
		n := 1 + rng.Intn(p-1)
		v := a.Alpha(p, n)
		if v < 0 || v > a.Max {
			return false
		}
		return v*float64(n)/float64(p-n) <= a.Budget+1e-9 || v == a.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
