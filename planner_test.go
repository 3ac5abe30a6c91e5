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

func TestPlannerRegistryDuplicateAndInvalid(t *testing.T) {
	// The registry is process-global, so every case here must be rejected:
	// a registration that succeeded would leak into every later test (the
	// docs drift tests compare the registry with DESIGN.md and API.md).
	// Duplicates are tried against a built-in name for that reason.
	err := ulba.RegisterPlanner("sigma+", func() ulba.Planner { return ulba.MenonPlanner{} })
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration of sigma+: err = %v, want already registered", err)
	}
	if err := ulba.RegisterPlanner("", func() ulba.Planner { return ulba.MenonPlanner{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := ulba.RegisterPlanner("nil-factory-planner", nil); err == nil {
		t.Error("nil factory accepted")
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
	if err := ulba.RegisterTrigger("degradation", func() ulba.Trigger { return ulba.DegradationTrigger{} }); err == nil {
		t.Error("duplicate trigger registration accepted")
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
