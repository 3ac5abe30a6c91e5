package ulba_test

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ulba"
)

// TestEveryRegisteredWorkloadRuns is the registry-coverage contract of the
// acceptance criteria: every workload selectable by name instantiates,
// produces sane weights, and completes a scenario run.
func TestEveryRegisteredWorkloadRuns(t *testing.T) {
	names := ulba.WorkloadNames()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 registered workloads, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := ulba.NewWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name() != name {
				t.Fatalf("workload %q reports Name() = %q", name, w.Name())
			}
			items, weight, err := w.Instantiate(4)
			if err != nil {
				t.Fatal(err)
			}
			if items < 4 {
				t.Fatalf("%d items for 4 PEs", items)
			}
			for _, iter := range []int{0, 1, 17, 59} {
				for item := 0; item < items; item++ {
					v := weight(item, iter)
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("weight(%d, %d) = %g", item, iter, v)
					}
				}
			}
			res, err := mustRuntime(t, 4,
				ulba.WithWorkload(w), ulba.WithIterations(60)).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Timeline.TotalTime <= 0 {
				t.Fatalf("run produced no time: %+v", res.Timeline)
			}
		})
	}
}

func TestWorkloadWeightFunctionsArePure(t *testing.T) {
	for _, name := range ulba.WorkloadNames() {
		w, err := ulba.NewWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		items, wa, err := w.Instantiate(4)
		if err != nil {
			t.Fatal(err)
		}
		_, wb, err := w.Instantiate(4)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 40; iter += 7 {
			for item := 0; item < items; item += 3 {
				x, y, z := wa(item, iter), wa(item, iter), wb(item, iter)
				if x != y || x != z {
					t.Fatalf("%s: weight(%d, %d) not pure: %g, %g, %g", name, item, iter, x, y, z)
				}
			}
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	cases := []struct {
		name string
		w    ulba.Workload
		p    int
	}{
		{"stationary non-positive PEs", ulba.StationaryWorkload{}, 0},
		{"stationary negative base", ulba.StationaryWorkload{Base: -1}, 4},
		{"stationary spread out of range", ulba.StationaryWorkload{Spread: 1.5}, 4},
		{"linear negative drift", ulba.LinearWorkload{A: -1}, 4},
		{"linear hot fraction out of range", ulba.LinearWorkload{HotFrac: 2}, 4},
		{"exponential negative growth", ulba.ExponentialWorkload{Growth: -1}, 4},
		{"exponential hot fraction out of range", ulba.ExponentialWorkload{HotFrac: -0.5}, 4},
		{"bursty negative amplitude", ulba.BurstyWorkload{Amplitude: -2}, 4},
		{"bursty duty out of range", ulba.BurstyWorkload{Duty: 1.5}, 4},
		{"outlier probability out of range", ulba.OutlierWorkload{Prob: 2}, 4},
		{"outlier negative scale", ulba.OutlierWorkload{Scale: -1}, 4},
		{"trace empty", ulba.TraceWorkload{}, 4},
		{"trace ragged", ulba.TraceWorkload{Rows: [][]float64{{1, 2}, {1}}}, 2},
		{"trace negative weight", ulba.TraceWorkload{Rows: [][]float64{{1, -2}}}, 2},
		{"trace fewer items than PEs", ulba.TraceWorkload{Rows: [][]float64{{1, 2}}}, 4},
		{"trace non-positive PEs", ulba.TraceWorkload{Rows: [][]float64{{1, 2}}}, 0},
	}
	for _, tc := range cases {
		if _, _, err := tc.w.Instantiate(tc.p); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestTraceWorkloadClampsBeyondRecording(t *testing.T) {
	w := ulba.TraceWorkload{Rows: [][]float64{{1, 2}, {3, 4}}}
	items, weight, err := w.Instantiate(2)
	if err != nil {
		t.Fatal(err)
	}
	if items != 2 {
		t.Fatalf("items = %d", items)
	}
	if weight(0, 5) != 3 || weight(1, 99) != 4 {
		t.Fatalf("iterations beyond the trace should clamp to the last row")
	}
}

func TestLoadTraceWorkload(t *testing.T) {
	csv := "a,b,c\n1,2,3\n4,5,6\n"
	w, err := ulba.LoadTraceWorkload(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 3}, {4, 5, 6}}
	if !reflect.DeepEqual(w.Rows, want) {
		t.Fatalf("rows = %v", w.Rows)
	}
	if _, err := ulba.LoadTraceWorkload(strings.NewReader("a,b\n1,oops\n")); err == nil {
		t.Fatal("expected a parse error")
	}
}

func TestDemoTraceWorkload(t *testing.T) {
	w := ulba.DemoTraceWorkload()
	items, _, err := w.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	if items != 16 || len(w.Rows) != 48 {
		t.Fatalf("demo trace is %d items x %d iterations, want 16 x 48", items, len(w.Rows))
	}
}

func TestLinearWorkloadModel(t *testing.T) {
	w := ulba.LinearWorkload{Seed: 11}
	e := mustRuntime(t, 8, ulba.WithWorkload(w), ulba.WithIterations(120))
	mp, err := w.Model(e.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(); err != nil {
		t.Fatalf("derived model invalid: %v", err)
	}
	if mp.P != 8 || mp.Gamma != 120 {
		t.Fatalf("model scale: %+v", mp)
	}
	// Default HotFrac 0.125 over 8 PEs: exactly one overloading PE.
	if mp.N != 1 {
		t.Fatalf("N = %d, want 1", mp.N)
	}
	if mp.C <= 0 || mp.M <= 0 || mp.A <= 0 || mp.W0 <= 0 {
		t.Fatalf("degenerate model: %+v", mp)
	}

	// The derived model feeds the planner path end to end.
	planned := mustRuntime(t, 8,
		ulba.WithWorkload(w),
		ulba.WithIterations(120),
		ulba.WithPlanner(ulba.SigmaPlusPlanner{}))
	if len(planned.PlannedSchedule()) == 0 {
		t.Fatal("sigma+ planned an empty schedule on a drifting workload")
	}
}

// TestRegisterWorkloadErrors pins the workload registry's refusal of a name
// it does not hold.
func TestRegisterWorkloadErrors(t *testing.T) {
	if _, err := ulba.NewWorkload("no-such-workload"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestRegistryNamesAreSortedCopies pins the registry-listing contract for
// all three registries: the returned slices are sorted, and they are fresh
// copies — a caller scribbling over one cannot corrupt later listings.
func TestRegistryNamesAreSortedCopies(t *testing.T) {
	listings := map[string]func() []string{
		"planners":  ulba.PlannerNames,
		"triggers":  ulba.TriggerNames,
		"workloads": ulba.WorkloadNames,
	}
	for kind, list := range listings {
		first := list()
		if len(first) == 0 {
			t.Fatalf("%s: empty registry", kind)
		}
		if !sort.StringsAreSorted(first) {
			t.Fatalf("%s: listing not sorted: %v", kind, first)
		}
		want := append([]string(nil), first...)
		for i := range first {
			first[i] = "corrupted"
		}
		if got := list(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mutating the returned slice changed the registry: %v", kind, got)
		}
	}
}
