package ulba

import "fmt"

// The policy registries: fixed, name-sorted tables of default constructors
// that every spec, CLI flag and request resolves names against. They do not
// change after start-up, and a sampled request's content address relies on
// that: cli.BuildScenarios cycles through WorkloadNames, and
// DefaultCriteria walks TriggerNames.

// registry is one name-sorted table of (name, default constructor) entries.
type registry[T any] struct {
	kind    string
	entries []registryEntry[T]
}

type registryEntry[T any] struct {
	name string
	new  func() T
}

func (r registry[T]) lookup(name string) (T, error) {
	for _, e := range r.entries {
		if e.name == name {
			return e.new(), nil
		}
	}
	var zero T
	return zero, fmt.Errorf("ulba: unknown %s %q (registered: %v)", r.kind, name, r.names())
}

// names lists the entries in table order, which is sorted order, as a
// fresh copy.
func (r registry[T]) names() []string {
	names := make([]string, len(r.entries))
	for i, e := range r.entries {
		names[i] = e.name
	}
	return names
}

var planners = registry[Planner]{kind: "planner", entries: []registryEntry[Planner]{
	{"anneal", func() Planner { return AnnealPlanner{} }},
	{"menon", func() Planner { return MenonPlanner{} }},
	{"periodic", func() Planner { return PeriodicPlanner{Every: 10} }},
	{"sigma+", func() Planner { return SigmaPlusPlanner{} }},
}}

var triggers = registry[Trigger]{kind: "trigger", entries: []registryEntry[Trigger]{
	{"degradation", func() Trigger { return DegradationTrigger{} }},
	{"menon", func() Trigger { return MenonTrigger{} }},
	{"never", func() Trigger { return NeverTrigger{} }},
	{"periodic", func() Trigger { return PeriodicTrigger{Every: 10} }},
	// The replay trigger comes with an empty plan (it then never fires);
	// callers configure the schedule, typically through WithPlanner, which
	// installs it automatically.
	{"schedule", func() Trigger { return ScheduleTrigger{} }},
	{"wli", func() Trigger { return WLITrigger{Threshold: 0.25} }},
}}

var workloads = registry[Workload]{kind: "workload", entries: []registryEntry[Workload]{
	{"amr", func() Workload { return AMRWorkload{} }},
	{"bursty", func() Workload { return BurstyWorkload{} }},
	{"exponential", func() Workload { return ExponentialWorkload{} }},
	{"linear", func() Workload { return LinearWorkload{} }},
	{"minife", func() Workload { return MiniFEWorkload{} }},
	{"outlier", func() Workload { return OutlierWorkload{} }},
	{"stationary", func() Workload { return StationaryWorkload{} }},
	{"target", func() Workload { return TargetImbalanceWorkload{} }},
	{"trace", func() Workload { return DemoTraceWorkload() }},
}}

// NewPlanner constructs the registered planner with the given name, in its
// default configuration. Callers that need another configuration (a
// periodic interval, an annealing budget) use a PlannerSpec or construct
// the planner directly.
func NewPlanner(name string) (Planner, error) { return planners.lookup(name) }

// PlannerNames lists the registered planners in sorted order.
func PlannerNames() []string { return planners.names() }

// NewTrigger constructs the registered trigger with the given name, in its
// default configuration.
func NewTrigger(name string) (Trigger, error) { return triggers.lookup(name) }

// TriggerNames lists the registered triggers in sorted order.
func TriggerNames() []string { return triggers.names() }

// NewWorkload constructs the registered workload with the given name, in
// its default configuration.
func NewWorkload(name string) (Workload, error) { return workloads.lookup(name) }

// WorkloadNames lists the registered workloads in sorted order. The slice
// is a fresh copy: mutating it cannot corrupt the registry.
func WorkloadNames() []string { return workloads.names() }
