// The fifth engine: criteria assessment after arXiv:2104.01688, scoring
// registered planner/trigger criteria against the perfect-knowledge bound
// over a shared scenario set. It exists to prove the generic core earns its
// keep — the whole serving surface (sync HTTP, NDJSON streaming, caching,
// async jobs with checkpoint/resume, cluster routing) comes from the
// registration below, with no assessment-specific code in any layer.

package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"ulba"
	"ulba/internal/cli"
)

// AssessRequest is the body of POST /v1/assess: a panel of criteria scored
// over a scenario set — explicit, sampled from the pinned scenario mix, or
// both concatenated (explicit first). Empty criteria select
// ulba.DefaultCriteria (every registered trigger at its defaults).
type AssessRequest struct {
	Criteria  []ulba.Criterion     `json:"criteria,omitempty"`
	Scenarios []AssessScenarioSpec `json:"scenarios,omitempty"`
	Sample    *SampleSpec          `json:"sample,omitempty"`
	Workers   int                  `json:"workers,omitempty"`
	Stream    bool                 `json:"stream,omitempty"`
}

// AssessScenarioSpec is the wire form of ulba.AssessmentScenario, with the
// model in its ModelSpec wire shape.
type AssessScenarioSpec struct {
	P          int                `json:"p"`
	Iterations int                `json:"iterations,omitempty"`
	Workload   *ulba.WorkloadSpec `json:"workload,omitempty"`
	Model      *ModelSpec         `json:"model,omitempty"`
	Speeds     []float64          `json:"speeds,omitempty"`
}

func (s AssessScenarioSpec) scenario() ulba.AssessmentScenario {
	out := ulba.AssessmentScenario{
		P: s.P, Iterations: s.Iterations,
		Workload: s.Workload, Speeds: s.Speeds,
	}
	if s.Model != nil {
		mp := s.Model.params()
		out.Model = &mp
	}
	return out
}

// AssessResponse is the body of a non-streamed POST /v1/assess: the
// per-criterion ranking plus the cell-ordered runtime results (cell index =
// criterion x scenario count + scenario).
type AssessResponse struct {
	Summary ulba.AssessmentSummary `json:"summary"`
	Results []ulba.RuntimeResult   `json:"results"`
}

// AssessStreamTail terminates a streamed /v1/assess.
type AssessStreamTail struct {
	Summary *ulba.AssessmentSummary `json:"summary,omitempty"`
	Error   string                  `json:"error,omitempty"`
}

// build validates the request into its criteria panel, the cell count, and
// a deferred assessment constructor. Criteria and explicit scenarios are
// validated eagerly — their errors must surface as 400s — while server-side
// scenario sampling is deferred into the compute path like the
// runtime-sweep's; the constructor memoizes, so Run/Prepare/Body of one
// decoded request build the cell grid once.
func (r AssessRequest) build() (criteria []ulba.Criterion, n int, assessment func() (*ulba.Assessment, error), err error) {
	criteria = r.Criteria
	if len(criteria) == 0 {
		criteria = ulba.DefaultCriteria()
	}
	for i, c := range criteria {
		if (c.Trigger == nil) == (c.Planner == nil) {
			return nil, 0, nil, fmt.Errorf("assessment criterion %d needs exactly one of trigger or planner", i)
		}
		if c.Trigger != nil {
			if _, err := c.Trigger.Trigger(); err != nil {
				return nil, 0, nil, fmt.Errorf("assessment criterion %d: %w", i, err)
			}
		}
		if c.Planner != nil {
			if _, err := c.Planner.Planner(); err != nil {
				return nil, 0, nil, fmt.Errorf("assessment criterion %d: %w", i, err)
			}
		}
	}
	if len(r.Scenarios) == 0 && r.Sample == nil {
		return nil, 0, nil, fmt.Errorf("assess request needs scenarios, sample, or both")
	}
	cols := len(r.Scenarios)
	if r.Sample != nil {
		if err := r.Sample.validate("scenarios"); err != nil {
			return nil, 0, nil, err
		}
		cols += r.Sample.N
	}
	n = len(criteria) * cols
	if n > runtimeSweepBatch {
		return nil, 0, nil, fmt.Errorf("%d assessment cells (criteria x scenarios) exceed the per-request limit of %d", n, runtimeSweepBatch)
	}
	explicit := make([]ulba.AssessmentScenario, len(r.Scenarios))
	for i, s := range r.Scenarios {
		// A column passes the cost ceiling of /v1/runtime, checked on the
		// column alone before the criteria multiply its instantiation.
		col := RuntimeRequest{P: s.P, Iterations: s.Iterations, Workload: s.Workload, Speeds: s.Speeds}
		if _, err := col.build(); err != nil {
			return nil, 0, nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		explicit[i] = s.scenario()
	}
	crits, workers, sample := criteria, r.Workers, r.Sample
	build := func() (*ulba.Assessment, error) {
		scens := explicit
		if sample != nil {
			scens = append(append([]ulba.AssessmentScenario(nil), explicit...),
				cli.BuildAssessmentScenarios(sample.Seed, sample.N)...)
		}
		return ulba.NewAssessment(crits, scens, ulba.WithWorkers(workers))
	}
	if sample == nil {
		// No sampling to defer: build now, so every invalid explicit
		// scenario or criterion x scenario pairing (e.g. a planner criterion
		// over an unmodeled workload) is a 400 at intake.
		a, err := build()
		if err != nil {
			return nil, 0, nil, err
		}
		return criteria, n, func() (*ulba.Assessment, error) { return a, nil }, nil
	} else if len(explicit) > 0 {
		// Probe the explicit columns alone for the same eager validation;
		// the probe grid is rebuilt with the sampled columns at compute
		// time.
		if _, err := ulba.NewAssessment(crits, explicit, ulba.WithWorkers(workers)); err != nil {
			return nil, 0, nil, err
		}
	}
	var once sync.Once
	var a *ulba.Assessment
	var aerr error
	return criteria, n, func() (*ulba.Assessment, error) {
		once.Do(func() { a, aerr = build() })
		return a, aerr
	}, nil
}

func (r AssessRequest) canonical() AssessRequest {
	r.Workers = 0
	r.Stream = false
	return r
}

// assessReq is a decoded POST /v1/assess request: the wire form, the cell
// count, and the memoized assessment constructor.
type assessReq struct {
	wire       AssessRequest
	n          int
	assessment func() (*ulba.Assessment, error)
}

type assessEngine struct{}

func (assessEngine) Meta() Meta {
	return Meta{Type: "assess", Endpoint: "/v1/assess"}
}

func (assessEngine) Decode(raw []byte) (assessReq, error) {
	var wire AssessRequest
	if err := DecodeStrict(bytes.NewReader(raw), &wire); err != nil {
		return assessReq{}, err
	}
	_, n, assessment, err := wire.build()
	if err != nil {
		return assessReq{}, err
	}
	return assessReq{wire: wire, n: n, assessment: assessment}, nil
}

func (assessEngine) Canonical(r assessReq) any { return r.wire.canonical() }

func (assessEngine) Units(r assessReq) int { return r.n }

func (assessEngine) Run(ctx context.Context, r assessReq) (AssessResponse, error) {
	a, err := r.assessment()
	if err != nil {
		return AssessResponse{}, err
	}
	summary, results, err := a.Run(ctx)
	if err != nil {
		return AssessResponse{}, err
	}
	return AssessResponse{Summary: summary, Results: results}, nil
}

func (assessEngine) Streaming(r assessReq) bool { return r.wire.Stream }

func (assessEngine) Prepare(r assessReq) (func(ctx context.Context, missing []int) <-chan UnitResult[ulba.RuntimeResult], error) {
	a, err := r.assessment()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, missing []int) <-chan UnitResult[ulba.RuntimeResult] {
		return mapStream(ctx, a.StreamCells(ctx, missing), func(res ulba.RuntimeSweepResult) UnitResult[ulba.RuntimeResult] {
			return UnitResult[ulba.RuntimeResult]{Index: res.Index, Unit: res.Result, Err: res.Err}
		})
	}, nil
}

// Line and DecodeLine reuse the runtime stream-line shape: an assessment
// unit is one per-scenario runtime result, exactly like a runtime-sweep's.
func (assessEngine) Line(index int, unit *ulba.RuntimeResult, errMsg string) any {
	return RuntimeStreamLine{Index: index, Result: unit, Error: errMsg}
}

func (assessEngine) DecodeLine(raw []byte) (int, ulba.RuntimeResult, bool) {
	return runtimeSweepEngine{}.DecodeLine(raw)
}

func (assessEngine) Body(r assessReq, units []ulba.RuntimeResult) (AssessResponse, error) {
	a, err := r.assessment()
	if err != nil {
		return AssessResponse{}, err
	}
	return AssessResponse{Summary: a.Summarize(units), Results: units}, nil
}

func (assessEngine) Tail(r assessReq, units []ulba.RuntimeResult) any {
	a, err := r.assessment()
	if err != nil {
		return AssessStreamTail{Error: err.Error()}
	}
	sum := a.Summarize(units)
	return AssessStreamTail{Summary: &sum}
}
