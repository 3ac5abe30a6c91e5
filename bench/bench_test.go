package main

import (
	"context"
	"strings"
	"testing"
)

// logWriter routes a run's progress lines into the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// checkMetrics asserts that res carries exactly the named metrics, each
// with its declared unit.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// TestShortRuns runs every workload of BENCHMARK.json at the smoke-test
// scale, plus one traced run, and checks the correctness gate and the
// metric names and units against the definition.
func TestShortRuns(t *testing.T) {
	def, err := readDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(context.Background(), options{workload: w.Name, seed: 7, seconds: 1, short: true}, logWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := run(context.Background(), options{workload: "serve-hot", seed: 7, seconds: 1, trace: 1, short: true}, logWriter{t})
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, perLayer)
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		b          bound
		base, head []float64
		want       string
	}{
		{"same", lower, steady, steady, "no worse"},
		{"slower", lower, steady, shift(steady, 1.10), "regressed"},
		{"faster", lower, steady, shift(steady, 0.90), "better"},
		{"noisy", lower, steady, []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, "unresolved"},
		{"higher is better", bound{Better: "higher", Bound: 0.05}, steady, shift(steady, 0.90), "regressed"},
		{"noisy set-up", bound{Name: "setup_s", Better: "lower", Bound: 0.05}, steady, []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, "no worse"},
	} {
		if got := verdict(c.b, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
