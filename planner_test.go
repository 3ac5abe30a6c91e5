package ulba_test

import (
	"strings"
	"testing"

	"ulba"
)

func TestPlannerRegistryLookup(t *testing.T) {
	for _, name := range []string{"sigma+", "menon", "periodic", "anneal"} {
		pl, err := ulba.NewPlanner(name)
		if err != nil {
			t.Fatalf("NewPlanner(%q): %v", name, err)
		}
		if pl.Name() != name {
			t.Errorf("planner %q reports name %q", name, pl.Name())
		}
	}
	names := ulba.PlannerNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("PlannerNames not sorted: %v", names)
		}
	}
}

func TestPlannerRegistryUnknown(t *testing.T) {
	_, err := ulba.NewPlanner("no-such-planner")
	if err == nil {
		t.Fatal("unknown planner accepted")
	}
	if !strings.Contains(err.Error(), "no-such-planner") || !strings.Contains(err.Error(), "sigma+") {
		t.Errorf("error should name the request and the registered planners: %v", err)
	}
}

func TestTriggerRegistry(t *testing.T) {
	for _, name := range []string{"degradation", "menon", "periodic", "never"} {
		tr, err := ulba.NewTrigger(name)
		if err != nil {
			t.Fatalf("NewTrigger(%q): %v", name, err)
		}
		if tr.Name() != name {
			t.Errorf("trigger %q reports name %q", name, tr.Name())
		}
		if tr.New() == nil {
			t.Errorf("trigger %q built a nil runtime trigger", name)
		}
	}
	if _, err := ulba.NewTrigger("no-such-trigger"); err == nil {
		t.Error("unknown trigger accepted")
	}
}

func TestPlannerGammaOverride(t *testing.T) {
	p := ulba.SampleInstances(7, 1)[0]
	short, err := ulba.SigmaPlusPlanner{}.Plan(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Validate(10); err != nil {
		t.Errorf("gamma override not honored: %v", err)
	}
}

func TestPeriodicPlannerValidation(t *testing.T) {
	p := ulba.SampleInstances(7, 1)[0]
	if _, err := (ulba.PeriodicPlanner{}).Plan(p, 0); err == nil {
		t.Error("periodic planner with Every=0 accepted")
	}
	s, err := ulba.PeriodicPlanner{Every: 7}.Plan(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, gap := range s.Intervals() {
		if gap != 7 {
			t.Fatalf("interval %d = %d, want 7", i, gap)
		}
	}
}
