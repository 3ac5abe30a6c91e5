package cli

import (
	"context"
	"testing"

	"ulba"
	"ulba/internal/simulate"
)

func TestConfigurePlanner(t *testing.T) {
	pl := ConfigurePlanner(ulba.PeriodicPlanner{}, 7, 0, 0)
	if got := pl.(ulba.PeriodicPlanner).Every; got != 7 {
		t.Errorf("periodic Every = %d, want 7", got)
	}
	pl = ConfigurePlanner(ulba.AnnealPlanner{}, 0, 500, 9)
	an := pl.(ulba.AnnealPlanner)
	if an.Steps != 500 || an.Seed != 9 {
		t.Errorf("anneal configured as %+v", an)
	}
	if pl = ConfigurePlanner(ulba.SigmaPlusPlanner{}, 7, 500, 9); pl.Name() != "sigma+" {
		t.Errorf("sigma+ planner not passed through: %v", pl.Name())
	}
}

func TestConfigureTrigger(t *testing.T) {
	tr := ConfigureTrigger(ulba.PeriodicTrigger{}, 5, 0)
	if got := tr.(ulba.PeriodicTrigger).Every; got != 5 {
		t.Errorf("periodic Every = %d, want 5", got)
	}
	if tr = ConfigureTrigger(ulba.NeverTrigger{}, 5, 0.4); tr.Name() != "never" {
		t.Errorf("never trigger not passed through: %v", tr.Name())
	}
	tr = ConfigureTrigger(ulba.WLITrigger{Threshold: 0.25}, 5, 0.4)
	if got := tr.(ulba.WLITrigger).Threshold; got != 0.4 {
		t.Errorf("wli Threshold = %g, want 0.4", got)
	}
	// A non-positive flag value keeps the registry default.
	tr = ConfigureTrigger(ulba.WLITrigger{Threshold: 0.25}, 5, 0)
	if got := tr.(ulba.WLITrigger).Threshold; got != 0.25 {
		t.Errorf("wli Threshold = %g, want the 0.25 default", got)
	}
}

// The sweep-backed Fig. 3 driver must reproduce simulate.RunFig3 exactly on
// the default planner: same generator order, same evaluations.
func TestRunFig3SweepMatchesSimulate(t *testing.T) {
	const n, grid, seed = 5, 11, uint64(4)
	planner, err := ulba.NewPlanner("sigma+")
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	got, err := RunFig3Sweep(context.Background(), planner, n, grid, seed, 2,
		func(float64, int, ulba.Comparison) { visits++ })
	if err != nil {
		t.Fatal(err)
	}
	want := simulate.RunFig3(simulate.Fig3Config{
		InstancesPerBucket: n, AlphaGridSize: grid, Seed: seed, Workers: 2,
	})
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Fraction != want[i].Fraction || got[i].Gains != want[i].Gains ||
			got[i].MeanBestAlpha != want[i].MeanBestAlpha {
			t.Errorf("bucket %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if visits != n*len(want) {
		t.Errorf("visit called %d times, want %d", visits, n*len(want))
	}
}

// SeededWorkload carries the seed into every generator workload and leaves
// it off the trace workload, which has no seed knob.
func TestSeededWorkload(t *testing.T) {
	if spec := SeededWorkload("trace", 5); spec.Seed != 0 {
		t.Errorf("trace spec carries seed %d", spec.Seed)
	}
	if _, err := SeededWorkload("trace", 5).Workload(); err != nil {
		t.Errorf("trace: %v", err)
	}
	w, err := SeededWorkload("linear", 5).Workload()
	if err != nil {
		t.Fatal(err)
	}
	if lw, ok := w.(ulba.LinearWorkload); !ok || lw != (ulba.LinearWorkload{Seed: 5}) {
		t.Errorf("linear resolved to %#v, want the registry default with seed 5", w)
	}
	if _, err := SeededWorkload("bogus", 5).Workload(); err == nil {
		t.Error("an unknown workload name resolved")
	}
}
