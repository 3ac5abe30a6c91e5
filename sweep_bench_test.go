// Benchmarks of the Sweep evaluation core: the allocation-free incremental
// fast path against the materialize-a-Schedule-per-alpha slow path it
// replaced, and the end-to-end engine throughput. `go test -bench Sweep`
// regenerates the comparison; the served end-to-end benchmark is
// bash bench/run.sh.
package ulba_test

import (
	"context"
	"testing"

	"ulba"
	"ulba/internal/instance"
	"ulba/internal/model"
	"ulba/internal/schedule"
	"ulba/internal/simulate"
)

// slowCompare is the pre-evaluator per-instance comparison: the standard
// method on its materialized Menon schedule, plus a full alpha-grid scan
// that builds and walks a sigma+ Schedule per grid point. Kept as the
// benchmark baseline and as the reference side of the golden tests.
func slowCompare(p model.Params, grid []float64) simulate.Comparison {
	p0 := p.WithAlpha(0)
	std := schedule.TotalTimeStd(p0, schedule.EverySigmaPlus(p0))
	best, bestAlpha := -1.0, 0.0
	for _, a := range grid {
		pa := p.WithAlpha(a)
		t := schedule.TotalTimeULBA(pa, schedule.EverySigmaPlus(pa))
		if best < 0 || t < best {
			best, bestAlpha = t, a
		}
	}
	return simulate.Comparison{
		Params:    p,
		StdTime:   std,
		ULBATime:  best,
		BestAlpha: bestAlpha,
		Gain:      (std - best) / std,
	}
}

// BenchmarkSweepFastPath measures the Sweep fast path's per-instance
// kernel: one Table II instance against the paper's 100-point alpha grid on
// the incremental evaluator. The acceptance bar is ~0 allocs/op and >= 3x
// the slow path's throughput.
func BenchmarkSweepFastPath(b *testing.B) {
	p := instance.NewGenerator(5).Sample()
	grid := simulate.AlphaGrid(100)
	var ev schedule.Evaluator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = simulate.CompareWith(&ev, p, grid)
	}
}

// BenchmarkSweepSlowPath measures the identical comparison the
// pre-evaluator way, for the speedup trajectory.
func BenchmarkSweepSlowPath(b *testing.B) {
	p := instance.NewGenerator(5).Sample()
	grid := simulate.AlphaGrid(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = slowCompare(p, grid)
	}
}

// BenchmarkSweepEngine measures end-to-end Sweep.Run throughput — worker
// pool, streaming, and aggregation included — in instances per second.
func BenchmarkSweepEngine(b *testing.B) {
	params := ulba.SampleInstances(2019, 256)
	s, err := ulba.NewSweep(ulba.WithAlphaGrid(100))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Run(context.Background(), params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(params))*float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// The benchmark baseline must stay honest: slowCompare and the fast path
// must agree bit for bit (the same contract the golden sweep test pins).
func TestSlowCompareMatchesFastPath(t *testing.T) {
	grid := simulate.AlphaGrid(100)
	for i, p := range ulba.SampleInstances(23, 50) {
		if fast, slow := simulate.Compare(p, grid), slowCompare(p, grid); fast != slow {
			t.Errorf("instance %d: fast %+v != slow %+v", i, fast, slow)
		}
	}
}
