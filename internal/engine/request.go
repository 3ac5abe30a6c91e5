// Request schemas of the HTTP service and their mapping onto the public
// functional-options builders. Requests use snake_case JSON fields; policy
// selection goes through the public spec types (ulba.PlannerSpec,
// ulba.TriggerSpec, ulba.WorkloadSpec), so the service accepts exactly the
// registries the in-process builders do. Responses marshal the library's
// result types as-is — the golden tests pin a served body bit-identical to
// the in-process result.
//
// The field order of every request struct is part of the serving contract:
// the content address hashes the canonical value's JSON, which marshals
// struct fields in declaration order. Reordering a field here would silently
// re-key every cached result.

package engine

import (
	"fmt"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/lb"
)

// SampleSpec asks the server to draw the inputs itself from the pinned
// generators: Table II instances for the model sweep (ulba.SampleInstances),
// the registered-workload scenario mix for the runtime sweep and the
// assessment engine (internal/cli.BuildScenarios). Sampling is
// seed-deterministic, so a sampled request is as cacheable as an explicit
// one.
type SampleSpec struct {
	Seed uint64 `json:"seed"`
	N    int    `json:"n"`
}

func (s *SampleSpec) validate(what string) error {
	if s.N <= 0 {
		return fmt.Errorf("sample.n must be positive, got %d", s.N)
	}
	if s.N > maxBatch {
		return fmt.Errorf("sample.n = %d exceeds the per-request limit of %d %s", s.N, maxBatch, what)
	}
	return nil
}

// maxBatch bounds the instances or scenarios one request may carry, so a
// single call cannot pin the server for minutes or balloon the cache.
const maxBatch = 100000

// maxScenarioCells bounds one runtime scenario's items x iterations grid:
// the clock-replay engine's work per run and the size of the weight table.
// It is the weight-table cap, so every served scenario runs tabled.
const maxScenarioCells = lb.MaxTableCells

// checkScenarioCells rejects a grid of items x iterations above
// maxScenarioCells, without overflowing on hostile sizes.
func checkScenarioCells(items, iterations int) error {
	if items > 0 && iterations > 0 && items > maxScenarioCells/iterations {
		return fmt.Errorf("scenario of %d items x %d iterations exceeds the per-scenario limit of %d cells",
			items, iterations, maxScenarioCells)
	}
	return nil
}

// An erosion experiment holds a StripeWidth x Height stripe per PE and
// steps every stripe each iteration, so its cost grows with p and with
// p x iterations. maxExperimentPEs is the paper's largest PE count;
// maxExperimentPEIterations admits the paper's longest run at that count
// (256 PEs x 450 iterations). defaultExperimentIterations is the run length
// ulba.New uses when a request omits iterations.
const (
	maxExperimentPEs            = 256
	maxExperimentPEIterations   = 131072
	defaultExperimentIterations = 120
)

// checkExperimentCost rejects an experiment above maxExperimentPEs or above
// maxExperimentPEIterations, without overflowing on hostile sizes.
func checkExperimentCost(p, iterations int) error {
	if p > maxExperimentPEs {
		return fmt.Errorf("experiment of %d PEs exceeds the per-experiment limit of %d PEs", p, maxExperimentPEs)
	}
	if p > 0 && iterations > 0 && p > maxExperimentPEIterations/iterations {
		return fmt.Errorf("experiment of %d PEs x %d iterations exceeds the per-experiment limit of %d PE-iterations",
			p, iterations, maxExperimentPEIterations)
	}
	return nil
}

// ModelSpec is the wire form of ulba.ModelParams (Table I). delta_w may be
// omitted: it is then derived as a*P + m*N, the only value Validate accepts.
type ModelSpec struct {
	P      int     `json:"p"`
	N      int     `json:"n"`
	Gamma  int     `json:"gamma"`
	W0     float64 `json:"w0"`
	DeltaW float64 `json:"delta_w,omitempty"`
	A      float64 `json:"a"`
	M      float64 `json:"m"`
	Alpha  float64 `json:"alpha,omitempty"`
	Omega  float64 `json:"omega"`
	C      float64 `json:"c"`
}

func (m ModelSpec) params() ulba.ModelParams {
	p := ulba.ModelParams{
		P: m.P, N: m.N, Gamma: m.Gamma,
		W0: m.W0, DeltaW: m.DeltaW, A: m.A, M: m.M,
		Alpha: m.Alpha, Omega: m.Omega, C: m.C,
	}
	if p.DeltaW == 0 {
		p.DeltaW = p.A*float64(p.P) + p.M*float64(p.N)
	}
	return p
}

// SweepRequest is the body of POST /v1/sweep: a batch of model instances —
// explicit, sampled, or both concatenated (explicit first) — evaluated by
// the Sweep engine.
type SweepRequest struct {
	Instances []ModelSpec       `json:"instances,omitempty"`
	Sample    *SampleSpec       `json:"sample,omitempty"`
	AlphaGrid int               `json:"alpha_grid,omitempty"`
	Planner   *ulba.PlannerSpec `json:"planner,omitempty"`

	// Workers tunes engine parallelism only; results are worker-count
	// invariant, so the field is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
}

// build validates the request into a ready engine, the batch size, and a
// deferred instance materializer. Materialization (explicit-spec conversion
// plus server-side sampling) is infallible once validation passed and is
// deferred into the compute path, so a cache hit never pays the O(n)
// generation cost of the batch it did not need.
func (r SweepRequest) build() (sweep *ulba.Sweep, n int, materialize func() []ulba.ModelParams, err error) {
	if len(r.Instances) == 0 && r.Sample == nil {
		return nil, 0, nil, fmt.Errorf("sweep request needs instances, sample, or both")
	}
	if len(r.Instances) > maxBatch {
		return nil, 0, nil, fmt.Errorf("%d instances exceed the per-request limit of %d", len(r.Instances), maxBatch)
	}
	n = len(r.Instances)
	if r.Sample != nil {
		if err := r.Sample.validate("instances"); err != nil {
			return nil, 0, nil, err
		}
		if len(r.Instances)+r.Sample.N > maxBatch {
			return nil, 0, nil, fmt.Errorf("instances + sample.n exceed the per-request limit of %d", maxBatch)
		}
		n += r.Sample.N
	}
	opts := []ulba.Option{ulba.WithWorkers(r.Workers)}
	if r.AlphaGrid != 0 {
		opts = append(opts, ulba.WithAlphaGrid(r.AlphaGrid))
	}
	if r.Planner != nil {
		pl, err := r.Planner.Planner()
		if err != nil {
			return nil, 0, nil, err
		}
		opts = append(opts, ulba.WithPlanner(pl))
	}
	sweep, err = ulba.NewSweep(opts...)
	if err != nil {
		return nil, 0, nil, err
	}
	return sweep, n, func() []ulba.ModelParams {
		params := make([]ulba.ModelParams, 0, n)
		for _, m := range r.Instances {
			params = append(params, m.params())
		}
		if r.Sample != nil {
			params = append(params, ulba.SampleInstances(r.Sample.Seed, r.Sample.N)...)
		}
		return params
	}, nil
}

// canonical strips the field that cannot change the result, the worker
// count, so requests differing only there share one cache entry.
func (r SweepRequest) canonical() SweepRequest {
	r.Workers = 0
	return r
}

// ExperimentRequest is the body of POST /v1/experiment: one erosion
// application run (optionally with its standard-method baseline) under the
// paper's defaults, overridden field by field. Pointer fields distinguish
// "omitted" from an explicit zero.
type ExperimentRequest struct {
	P             int      `json:"p"`
	Method        string   `json:"method,omitempty"` // "standard" (default) or "ulba"
	Alpha         *float64 `json:"alpha,omitempty"`
	AdaptiveAlpha bool     `json:"adaptive_alpha,omitempty"`
	Iterations    int      `json:"iterations,omitempty"`
	Seed          *uint64  `json:"seed,omitempty"`
	ZThreshold    float64  `json:"z_threshold,omitempty"`
	OSNoise       *float64 `json:"os_noise,omitempty"`
	RCB           bool     `json:"rcb,omitempty"`
	OverheadTerm  *bool    `json:"overhead_term,omitempty"`

	Trigger *ulba.TriggerSpec `json:"trigger,omitempty"`
	Planner *ulba.PlannerSpec `json:"planner,omitempty"`
	Model   *ModelSpec        `json:"model,omitempty"`

	Compare bool `json:"compare,omitempty"`
	Workers int  `json:"workers,omitempty"`
}

// build validates the request into a ready experiment. The cost ceiling is
// checked first, before a planner would plan over the requested run length.
func (r ExperimentRequest) build() (*ulba.Experiment, error) {
	iterations := r.Iterations
	if iterations == 0 {
		iterations = defaultExperimentIterations
	}
	if err := checkExperimentCost(r.P, iterations); err != nil {
		return nil, err
	}
	opts := []ulba.Option{ulba.WithWorkers(r.Workers)}
	switch r.Method {
	case "", "standard":
	case "ulba":
		opts = append(opts, ulba.WithMethod(ulba.ULBA))
	default:
		return nil, fmt.Errorf("unknown method %q (want \"standard\" or \"ulba\")", r.Method)
	}
	if r.Alpha != nil {
		opts = append(opts, ulba.WithAlpha(*r.Alpha))
	}
	if r.AdaptiveAlpha {
		opts = append(opts, ulba.WithAdaptiveAlpha())
	}
	if r.Iterations != 0 {
		opts = append(opts, ulba.WithIterations(r.Iterations))
	}
	if r.Seed != nil {
		opts = append(opts, ulba.WithSeed(*r.Seed))
	}
	if r.ZThreshold != 0 {
		opts = append(opts, ulba.WithZThreshold(r.ZThreshold))
	}
	if r.OSNoise != nil {
		opts = append(opts, ulba.WithOSNoise(*r.OSNoise))
	}
	if r.RCB {
		opts = append(opts, ulba.WithRCB(true))
	}
	if r.OverheadTerm != nil {
		opts = append(opts, ulba.WithOverheadTerm(*r.OverheadTerm))
	}
	opts, err := appendPolicy(opts, r.Trigger, r.Planner, r.Model)
	if err != nil {
		return nil, err
	}
	return ulba.New(r.P, opts...)
}

func (r ExperimentRequest) canonical() ExperimentRequest {
	r.Workers = 0
	return r
}

// appendPolicy maps the when-to-balance part of a request — trigger or
// planner spec plus optional model — onto options, shared by the experiment
// and runtime endpoints. The builders themselves enforce the
// planner/trigger mutual exclusion and the planner-needs-model rule.
func appendPolicy(opts []ulba.Option, ts *ulba.TriggerSpec, ps *ulba.PlannerSpec, ms *ModelSpec) ([]ulba.Option, error) {
	if ts != nil {
		t, err := ts.Trigger()
		if err != nil {
			return nil, err
		}
		opts = append(opts, ulba.WithTrigger(t))
	}
	if ps != nil {
		pl, err := ps.Planner()
		if err != nil {
			return nil, err
		}
		opts = append(opts, ulba.WithPlanner(pl))
	}
	if ms != nil {
		opts = append(opts, ulba.WithModel(ms.params()))
	}
	return opts, nil
}

// RuntimeRequest is the body of POST /v1/runtime (and one element of a
// runtime-sweep batch): one synthetic scenario on the simulated cluster.
type RuntimeRequest struct {
	P          int                `json:"p"`
	Iterations int                `json:"iterations,omitempty"`
	Workload   *ulba.WorkloadSpec `json:"workload,omitempty"`
	Trigger    *ulba.TriggerSpec  `json:"trigger,omitempty"`
	Planner    *ulba.PlannerSpec  `json:"planner,omitempty"`
	Model      *ModelSpec         `json:"model,omitempty"`
	// Speeds makes the simulated cluster heterogeneous: PE r computes at
	// speeds[r] times the reference rate (ulba.WithSpeeds). Length must
	// equal p; omitted means homogeneous.
	Speeds  []float64 `json:"speeds,omitempty"`
	Workers int       `json:"workers,omitempty"`
}

// build validates the request into a ready scenario. The cost ceiling is
// checked twice: p x iterations before the build, because instantiating a
// workload allocates per PE and every PE owns at least one item, and the
// instantiated items x iterations after it.
func (r RuntimeRequest) build() (*ulba.RuntimeExperiment, error) {
	if err := checkScenarioCells(r.P, max(r.Iterations, 1)); err != nil {
		return nil, err
	}
	opts := []ulba.Option{ulba.WithWorkers(r.Workers)}
	if r.Iterations != 0 {
		opts = append(opts, ulba.WithIterations(r.Iterations))
	}
	if len(r.Speeds) > 0 {
		opts = append(opts, ulba.WithSpeeds(r.Speeds))
	}
	if r.Workload != nil {
		w, err := r.Workload.Workload()
		if err != nil {
			return nil, err
		}
		opts = append(opts, ulba.WithWorkload(w))
	}
	opts, err := appendPolicy(opts, r.Trigger, r.Planner, r.Model)
	if err != nil {
		return nil, err
	}
	exp, err := ulba.NewRuntime(r.P, opts...)
	if err != nil {
		return nil, err
	}
	cfg := exp.Config()
	if err := checkScenarioCells(cfg.Items, cfg.Iterations); err != nil {
		return nil, err
	}
	return exp, nil
}

func (r RuntimeRequest) canonical() RuntimeRequest {
	r.Workers = 0
	return r
}

// RuntimeSweepRequest is the body of POST /v1/runtime-sweep: a batch of
// scenarios — explicit, sampled from the pinned scenario mix, or both
// concatenated (explicit first) — run by the RuntimeSweep engine.
type RuntimeSweepRequest struct {
	Scenarios []RuntimeRequest `json:"scenarios,omitempty"`
	Sample    *SampleSpec      `json:"sample,omitempty"`
	Workers   int              `json:"workers,omitempty"`
}

// runtimeSweepBatch bounds a runtime-sweep batch: each scenario spawns its
// PE-count goroutines, so the limit is far below the model sweep's.
const runtimeSweepBatch = 4096

// build validates the request into a ready engine, the batch size, and a
// deferred scenario materializer. Explicit scenarios are built eagerly —
// their validation errors must surface as 400s — but server-side sampling
// (cli.BuildScenarios constructs a RuntimeExperiment per scenario) is
// deferred into the compute path, so a cache hit skips it; a sampling
// failure there is a server bug and correctly surfaces as a 500.
func (r RuntimeSweepRequest) build() (sweep *ulba.RuntimeSweep, n int, materialize func() ([]*ulba.RuntimeExperiment, error), err error) {
	if len(r.Scenarios) == 0 && r.Sample == nil {
		return nil, 0, nil, fmt.Errorf("runtime-sweep request needs scenarios, sample, or both")
	}
	if len(r.Scenarios) > runtimeSweepBatch {
		return nil, 0, nil, fmt.Errorf("%d scenarios exceed the per-request limit of %d", len(r.Scenarios), runtimeSweepBatch)
	}
	explicit := make([]*ulba.RuntimeExperiment, 0, len(r.Scenarios))
	for i, sc := range r.Scenarios {
		exp, err := sc.build()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		explicit = append(explicit, exp)
	}
	n = len(explicit)
	if r.Sample != nil {
		if err := r.Sample.validate("scenarios"); err != nil {
			return nil, 0, nil, err
		}
		if len(r.Scenarios)+r.Sample.N > runtimeSweepBatch {
			return nil, 0, nil, fmt.Errorf("scenarios + sample.n exceed the per-request limit of %d", runtimeSweepBatch)
		}
		n += r.Sample.N
	}
	sweep, err = ulba.NewRuntimeSweep(ulba.WithWorkers(r.Workers))
	if err != nil {
		return nil, 0, nil, err
	}
	return sweep, n, func() ([]*ulba.RuntimeExperiment, error) {
		if r.Sample == nil {
			return explicit, nil
		}
		sampled, _, err := cli.BuildScenarios(r.Sample.Seed, r.Sample.N)
		if err != nil {
			return nil, err
		}
		return append(explicit, sampled...), nil
	}, nil
}

func (r RuntimeSweepRequest) canonical() RuntimeSweepRequest {
	scens := make([]RuntimeRequest, len(r.Scenarios))
	for i, sc := range r.Scenarios {
		scens[i] = sc.canonical()
	}
	r.Scenarios = scens
	r.Workers = 0
	return r
}
