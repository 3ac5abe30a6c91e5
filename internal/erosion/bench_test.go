package erosion

import (
	"fmt"
	"testing"
)

func BenchmarkStep(b *testing.B) {
	for _, size := range []struct{ w, h, r int }{
		{64, 64, 16},
		{192, 400, 48},
	} {
		b.Run(fmt.Sprintf("%dx%d", size.w, size.h), func(b *testing.B) {
			cfg := Config{
				P: 4, StripeWidth: size.w, Height: size.h, Radius: size.r,
				StrongRocks: 1, ProbStrong: 0.4, ProbWeak: 0.02,
				Seed: 1, FlopPerUnit: 100,
			}
			d := NewDomain(cfg, 0, cfg.Width())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step(i, nil, nil)
			}
			b.ReportMetric(float64(d.RockCount()), "rocksLeft")
		})
	}
}

func BenchmarkNewDomain(b *testing.B) {
	cfg := DefaultConfig(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewDomain(cfg, 0, cfg.StripeWidth) // one stripe
	}
}

// BenchmarkNewTrace builds the trace of one default-scale instance: the
// physics every run of a figure cell shares.
func BenchmarkNewTrace(b *testing.B) {
	cfg := DefaultConfig(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTrace(cfg, 120); err != nil {
			b.Fatal(err)
		}
	}
}
