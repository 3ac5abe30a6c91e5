package simulate

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ulba/internal/instance"
	"ulba/internal/schedule"
)

func TestAlphaGrid(t *testing.T) {
	g := AlphaGrid(100)
	if len(g) != 100 || g[0] != 0 || g[99] != 1 {
		t.Fatalf("grid malformed: len=%d ends=%v,%v", len(g), g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid must increase")
		}
	}
	if got := AlphaGrid(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("AlphaGrid(1) = %v", got)
	}
}

func TestCompareGainNonNegative(t *testing.T) {
	gen := instance.NewGenerator(5)
	grid := AlphaGrid(21)
	for i := 0; i < 100; i++ {
		p := gen.Sample()
		c := Compare(p, grid)
		if c.Gain < -1e-12 {
			t.Fatalf("instance %d: ULBA with alpha grid including 0 lost to standard: gain=%g\n%v", i, c.Gain, p)
		}
		if c.ULBATime > c.StdTime*(1+1e-12) {
			t.Fatalf("instance %d: ULBA time exceeds standard: %g > %g", i, c.ULBATime, c.StdTime)
		}
	}
}

func TestStandardTimeMatchesAlphaZeroULBA(t *testing.T) {
	gen := instance.NewGenerator(6)
	for i := 0; i < 50; i++ {
		p := gen.Sample()
		std := StandardTime(p)
		ul := ULBATimeAt(p, 0)
		if math.Abs(std-ul) > 1e-9*std {
			t.Fatalf("alpha=0 ULBA != standard: %g vs %g", ul, std)
		}
	}
}

func TestBestAlphaPicksMinimum(t *testing.T) {
	gen := instance.NewGenerator(7)
	p := gen.Sample()
	grid := AlphaGrid(11)
	a, best := BestAlpha(p, grid)
	for _, g := range grid {
		if tt := ULBATimeAt(p, g); tt < best-1e-12 {
			t.Fatalf("BestAlpha missed alpha=%g (%g < %g at alpha=%g)", g, tt, best, a)
		}
	}
}

func TestRunFig3SmallShape(t *testing.T) {
	cfg := Fig3Config{
		Buckets:            []float64{0.01, 0.20},
		InstancesPerBucket: 40,
		AlphaGridSize:      21,
		Seed:               11,
		Workers:            4,
	}
	buckets := RunFig3(cfg)
	if len(buckets) != 2 {
		t.Fatalf("want 2 buckets, got %d", len(buckets))
	}
	for _, b := range buckets {
		if b.Gains.N != 40 {
			t.Errorf("bucket %v: N = %d, want 40", b.Fraction, b.Gains.N)
		}
		if b.Gains.Min < 0 {
			t.Errorf("bucket %v: negative gain %g", b.Fraction, b.Gains.Min)
		}
		if b.MeanBestAlpha < 0 || b.MeanBestAlpha > 1 {
			t.Errorf("bucket %v: mean alpha %g out of range", b.Fraction, b.MeanBestAlpha)
		}
		if len(b.RawGains) != 40 {
			t.Errorf("raw gains not kept")
		}
	}
	// Paper shape: fewer overloading PEs -> larger gains and larger best
	// alpha. With 40 instances the medians are stable enough.
	if buckets[0].Gains.Median <= buckets[1].Gains.Median {
		t.Errorf("median gain should fall with overloading fraction: %g (1%%) vs %g (20%%)",
			buckets[0].Gains.Median, buckets[1].Gains.Median)
	}
	if buckets[0].MeanBestAlpha <= buckets[1].MeanBestAlpha {
		t.Errorf("mean best alpha should fall with overloading fraction: %g vs %g",
			buckets[0].MeanBestAlpha, buckets[1].MeanBestAlpha)
	}
}

func TestRunFig3Deterministic(t *testing.T) {
	cfg := Fig3Config{Buckets: []float64{0.05}, InstancesPerBucket: 10, AlphaGridSize: 11, Seed: 3, Workers: 3}
	a := RunFig3(cfg)
	b := RunFig3(cfg)
	if a[0].Gains != b[0].Gains || a[0].MeanBestAlpha != b[0].MeanBestAlpha {
		t.Error("Fig3 run is not deterministic under parallelism")
	}
}

func TestRunFig3Defaults(t *testing.T) {
	cfg := Fig3Config{Buckets: []float64{0.1}, InstancesPerBucket: 4, AlphaGridSize: 5, Seed: 1}
	buckets := RunFig3(cfg)
	if len(buckets) != 1 || buckets[0].Gains.N != 4 {
		t.Fatalf("defaults broken: %+v", buckets)
	}
}

func TestAnnealScheduleImprovesOnEmpty(t *testing.T) {
	gen := instance.NewGenerator(21)
	p := gen.Sample()
	// With the Table II cost structure some LB steps are always
	// beneficial over 100 iterations; annealing must find a schedule at
	// least as good as both the empty schedule and not much worse than
	// sigma+.
	empty := schedule.TotalTimeULBA(p, nil)
	annealed := AnnealSchedule(p, 8000, 99)
	annealTime := schedule.TotalTimeULBA(p, annealed)
	if annealTime > empty*(1+1e-12) {
		t.Errorf("annealing ended worse than its empty start: %g > %g", annealTime, empty)
	}
}

func TestRunFig2Small(t *testing.T) {
	cfg := Fig2Config{Instances: 12, AnnealSteps: 4000, Seed: 17, Workers: 4}
	res := RunFig2(cfg)
	if len(res.Gains) != 12 {
		t.Fatalf("want 12 gains, got %d", len(res.Gains))
	}
	if res.Worst > res.Mean || res.Mean > res.Best {
		t.Errorf("summary ordering broken: worst %g mean %g best %g", res.Worst, res.Mean, res.Best)
	}
	// The sigma+ schedule should be competitive: mean within a few
	// percent of the annealed optimum (paper: -0.83%).
	if res.Mean < -0.15 {
		t.Errorf("sigma+ far from annealed optimum: mean gain %g", res.Mean)
	}
	if res.Mean > 0.10 {
		t.Errorf("suspicious: sigma+ hugely better than annealing, mean %g — annealing broken?", res.Mean)
	}
	if res.BetterFrac < 0 || res.BetterFrac > 1 {
		t.Errorf("BetterFrac out of range: %g", res.BetterFrac)
	}
}

func TestRunFig2Deterministic(t *testing.T) {
	cfg := Fig2Config{Instances: 6, AnnealSteps: 2000, Seed: 8, Workers: 3}
	a := RunFig2(cfg)
	b := RunFig2(cfg)
	for i := range a.Gains {
		if a.Gains[i] != b.Gains[i] {
			t.Fatal("Fig2 run is not deterministic under parallelism")
		}
	}
}

func TestParallelMapOrderAndWorkers(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{0, 1, 7, 200} {
		out := parallelMap(workers, in, func(x int) int { return x * x })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if got := parallelMap(4, []int{}, func(x int) int { return x }); len(got) != 0 {
		t.Error("empty input should give empty output")
	}
}

// A context cancelled before FanOut starts dispatches no work at all, in
// both delivery modes and on one worker or several, and the stream closes.
func TestFanOutCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, guaranteed := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			var calls atomic.Int64
			results := 0
			for range FanOut(ctx, 4, workers, guaranteed, func() func(int) int {
				return func(i int) int { calls.Add(1); return i }
			}) {
				results++
			}
			if n := calls.Load(); n != 0 || results != 0 {
				t.Errorf("guaranteed=%v workers=%d: %d calls, %d results under a pre-cancelled context",
					guaranteed, workers, n, results)
			}
		}
	}
}

// Cancelling mid-dispatch stops further work; with guaranteed delivery
// every dispatched index still delivers its result before the stream
// closes.
func TestFanOutCancelledMidDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	var started atomic.Int64
	results := 0
	for range FanOut(ctx, n, 2, true, func() func(int) int {
		return func(i int) int {
			if started.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i
		}
	}) {
		results++
	}
	// The dispatch loop stops at the cancellation point: with 2 workers at
	// most a handful of calls can already be in flight, nowhere near the
	// full input. The stream closed only after all of them finished, so
	// started is stable and equals the delivered results.
	if s := started.Load(); s >= n || int64(results) != s {
		t.Errorf("%d of %d calls ran and %d results arrived despite mid-dispatch cancellation", s, n, results)
	}
}

// Property: the gain of ULBA at its best alpha is monotone in the richness
// of the alpha grid (a superset grid can only do better).
func TestGridRefinementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := instance.NewGenerator(seed).Sample()
		_, coarse := BestAlpha(p, AlphaGrid(5))
		_, fine := BestAlpha(p, AlphaGrid(9)) // 9-grid contains the 5-grid
		return fine <= coarse*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: standard time is invariant to the instance's alpha field.
func TestStandardIgnoresAlphaProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := instance.NewGenerator(seed).Sample()
		return StandardTime(p) == StandardTime(p.WithAlpha(0.77))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
