// The four original engines of the service — experiment, sweep, runtime,
// runtime-sweep — implemented against the generic contract. Each binds its
// wire request type to the matching public builder of package ulba; the
// response and stream-line types here marshal exactly the bytes the
// pre-refactor handlers served (the golden refactor-pin test holds them to
// it).

package engine

import (
	"bytes"
	"context"
	"encoding/json"

	"ulba"
)

// init registers every engine in serving order: the registration sequence
// is the route-mount order, the job-type vocabulary order, and the
// registries listing order, so it lives in one place.
func init() {
	Register(experimentEngine{})
	RegisterBatch(sweepEngine{})
	Register(runtimeEngine{})
	RegisterBatch(runtimeSweepEngine{})
	RegisterBatch(assessEngine{})
}

// ExperimentResponse is the body of POST /v1/experiment. Result (and
// Baseline, with compare) marshal ulba.RunResult as-is; Gain and
// CallsAvoided are the MethodComparison derivations, and
// PredictedTotalTime carries Experiment.PlannedTotalTime for planner-driven
// runs.
type ExperimentResponse struct {
	Result             ulba.RunResult  `json:"result"`
	Baseline           *ulba.RunResult `json:"baseline,omitempty"`
	Gain               *float64        `json:"gain,omitempty"`
	CallsAvoided       *float64        `json:"calls_avoided,omitempty"`
	PredictedTotalTime *float64        `json:"predicted_total_time,omitempty"`
}

// SweepResponse is the body of POST /v1/sweep: exactly Sweep.Run's summary
// and input-ordered comparisons, marshaled as-is.
type SweepResponse struct {
	Summary     ulba.SweepSummary `json:"summary"`
	Comparisons []ulba.Comparison `json:"comparisons"`
}

// RuntimeResponse is the body of POST /v1/runtime: RuntimeResult marshaled
// as-is plus its two derived figures of merit.
type RuntimeResponse struct {
	Result     ulba.RuntimeResult `json:"result"`
	Gain       float64            `json:"gain"`
	Efficiency float64            `json:"efficiency"`
}

// RuntimeSweepResponse is the body of POST /v1/runtime-sweep: exactly
// RuntimeSweep.Run's summary and input-ordered results.
type RuntimeSweepResponse struct {
	Summary ulba.RuntimeSweepSummary `json:"summary"`
	Results []ulba.RuntimeResult     `json:"results"`
}

// SweepStreamLine is one per-instance line of a sweep job's stream and its
// checkpoint-line format.
type SweepStreamLine struct {
	Index      int              `json:"index"`
	Comparison *ulba.Comparison `json:"comparison,omitempty"`
}

// RuntimeStreamLine is one per-scenario line of a runtime-sweep job's stream
// (and of an assess job's, whose units are the same per-scenario runtime
// results) and the checkpoint-line format of both engines' jobs.
type RuntimeStreamLine struct {
	Index  int                 `json:"index"`
	Result *ulba.RuntimeResult `json:"result,omitempty"`
}

// --- experiment ---

// experimentReq is a decoded POST /v1/experiment request: the wire form
// (for the canonical value) plus its ready-to-run builder product.
type experimentReq struct {
	wire ExperimentRequest
	exp  *ulba.Experiment
}

type experimentEngine struct{}

func (experimentEngine) Meta() Meta {
	return Meta{Type: "experiment", Endpoint: "/v1/experiment"}
}

func (experimentEngine) Decode(raw []byte) (experimentReq, error) {
	var wire ExperimentRequest
	if err := DecodeStrict(bytes.NewReader(raw), &wire); err != nil {
		return experimentReq{}, err
	}
	exp, err := wire.build()
	if err != nil {
		return experimentReq{}, err
	}
	return experimentReq{wire: wire, exp: exp}, nil
}

func (experimentEngine) Canonical(r experimentReq) any { return r.wire.canonical() }

func (experimentEngine) Units(experimentReq) int { return 1 }

func (experimentEngine) Run(ctx context.Context, r experimentReq) (ExperimentResponse, error) {
	var resp ExperimentResponse
	if r.wire.Compare {
		cmp, err := r.exp.Compare(ctx)
		if err != nil {
			return ExperimentResponse{}, err
		}
		gain, avoided := cmp.Gain(), cmp.CallsAvoided()
		resp.Result = cmp.Result
		resp.Baseline = &cmp.Baseline
		resp.Gain, resp.CallsAvoided = &gain, &avoided
	} else {
		res, err := r.exp.Run(ctx)
		if err != nil {
			return ExperimentResponse{}, err
		}
		resp.Result = res
	}
	if t, ok := r.exp.PlannedTotalTime(); ok {
		resp.PredictedTotalTime = &t
	}
	return resp, nil
}

// --- runtime ---

// runtimeReq is a decoded POST /v1/runtime request.
type runtimeReq struct {
	wire RuntimeRequest
	exp  *ulba.RuntimeExperiment
}

type runtimeEngine struct{}

func (runtimeEngine) Meta() Meta {
	return Meta{Type: "runtime", Endpoint: "/v1/runtime"}
}

func (runtimeEngine) Decode(raw []byte) (runtimeReq, error) {
	var wire RuntimeRequest
	if err := DecodeStrict(bytes.NewReader(raw), &wire); err != nil {
		return runtimeReq{}, err
	}
	exp, err := wire.build()
	if err != nil {
		return runtimeReq{}, err
	}
	return runtimeReq{wire: wire, exp: exp}, nil
}

func (runtimeEngine) Canonical(r runtimeReq) any { return r.wire.canonical() }

func (runtimeEngine) Units(runtimeReq) int { return 1 }

func (runtimeEngine) Run(ctx context.Context, r runtimeReq) (RuntimeResponse, error) {
	res, err := r.exp.Run(ctx)
	if err != nil {
		return RuntimeResponse{}, err
	}
	return RuntimeResponse{Result: res, Gain: res.Gain(), Efficiency: res.Efficiency()}, nil
}

// --- sweep ---

// sweepReq is a decoded POST /v1/sweep request: the wire form, the ready
// engine, the batch size, and the deferred instance materializer.
type sweepReq struct {
	wire        SweepRequest
	sweep       *ulba.Sweep
	n           int
	materialize func() []ulba.ModelParams
}

type sweepEngine struct{}

func (sweepEngine) Meta() Meta {
	return Meta{Type: "sweep", Endpoint: "/v1/sweep"}
}

func (sweepEngine) Decode(raw []byte) (sweepReq, error) {
	var wire SweepRequest
	if err := DecodeStrict(bytes.NewReader(raw), &wire); err != nil {
		return sweepReq{}, err
	}
	sweep, n, materialize, err := wire.build()
	if err != nil {
		return sweepReq{}, err
	}
	return sweepReq{wire: wire, sweep: sweep, n: n, materialize: materialize}, nil
}

func (sweepEngine) Canonical(r sweepReq) any { return r.wire.canonical() }

func (sweepEngine) Units(r sweepReq) int { return r.n }

// Run is the unary leg: Sweep.Run aggregates internally under the
// guaranteed lowest-index error contract.
func (sweepEngine) Run(ctx context.Context, r sweepReq) (SweepResponse, error) {
	summary, comps, err := r.sweep.Run(ctx, r.materialize())
	if err != nil {
		return SweepResponse{}, err
	}
	return SweepResponse{Summary: summary, Comparisons: comps}, nil
}

func (sweepEngine) Prepare(r sweepReq) (func(ctx context.Context, missing []int) <-chan UnitResult[ulba.Comparison], error) {
	params := r.materialize()
	return func(ctx context.Context, missing []int) <-chan UnitResult[ulba.Comparison] {
		sub := make([]ulba.ModelParams, len(missing))
		for i, idx := range missing {
			sub[i] = params[idx]
		}
		return mapStream(ctx, r.sweep.Stream(ctx, sub), func(res ulba.SweepResult) UnitResult[ulba.Comparison] {
			return UnitResult[ulba.Comparison]{Index: res.Index, Unit: res.Comparison, Err: res.Err}
		})
	}, nil
}

func (sweepEngine) Line(index int, unit *ulba.Comparison) any {
	return SweepStreamLine{Index: index, Comparison: unit}
}

func (sweepEngine) DecodeLine(raw []byte) (int, ulba.Comparison, bool) {
	var line SweepStreamLine
	if json.Unmarshal(raw, &line) != nil || line.Comparison == nil {
		return 0, ulba.Comparison{}, false
	}
	return line.Index, *line.Comparison, true
}

func (sweepEngine) Body(_ sweepReq, units []ulba.Comparison) (SweepResponse, error) {
	return SweepResponse{Summary: ulba.SummarizeSweep(units), Comparisons: units}, nil
}

// --- runtime-sweep ---

// runtimeSweepReq is a decoded POST /v1/runtime-sweep request.
type runtimeSweepReq struct {
	wire        RuntimeSweepRequest
	sweep       *ulba.RuntimeSweep
	n           int
	materialize func() ([]*ulba.RuntimeExperiment, error)
}

type runtimeSweepEngine struct{}

func (runtimeSweepEngine) Meta() Meta {
	return Meta{Type: "runtime-sweep", Endpoint: "/v1/runtime-sweep"}
}

func (runtimeSweepEngine) Decode(raw []byte) (runtimeSweepReq, error) {
	var wire RuntimeSweepRequest
	if err := DecodeStrict(bytes.NewReader(raw), &wire); err != nil {
		return runtimeSweepReq{}, err
	}
	sweep, n, materialize, err := wire.build()
	if err != nil {
		return runtimeSweepReq{}, err
	}
	return runtimeSweepReq{wire: wire, sweep: sweep, n: n, materialize: materialize}, nil
}

func (runtimeSweepEngine) Canonical(r runtimeSweepReq) any { return r.wire.canonical() }

func (runtimeSweepEngine) Units(r runtimeSweepReq) int { return r.n }

func (runtimeSweepEngine) Run(ctx context.Context, r runtimeSweepReq) (RuntimeSweepResponse, error) {
	exps, err := r.materialize()
	if err != nil {
		return RuntimeSweepResponse{}, err
	}
	summary, results, err := r.sweep.Run(ctx, exps)
	if err != nil {
		return RuntimeSweepResponse{}, err
	}
	return RuntimeSweepResponse{Summary: summary, Results: results}, nil
}

func (runtimeSweepEngine) Prepare(r runtimeSweepReq) (func(ctx context.Context, missing []int) <-chan UnitResult[ulba.RuntimeResult], error) {
	exps, err := r.materialize()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, missing []int) <-chan UnitResult[ulba.RuntimeResult] {
		sub := make([]*ulba.RuntimeExperiment, len(missing))
		for i, idx := range missing {
			sub[i] = exps[idx]
		}
		return mapStream(ctx, r.sweep.Stream(ctx, sub), func(res ulba.RuntimeSweepResult) UnitResult[ulba.RuntimeResult] {
			return UnitResult[ulba.RuntimeResult]{Index: res.Index, Unit: res.Result, Err: res.Err}
		})
	}, nil
}

func (runtimeSweepEngine) Line(index int, unit *ulba.RuntimeResult) any {
	return RuntimeStreamLine{Index: index, Result: unit}
}

func (runtimeSweepEngine) DecodeLine(raw []byte) (int, ulba.RuntimeResult, bool) {
	var line RuntimeStreamLine
	if json.Unmarshal(raw, &line) != nil || line.Result == nil {
		return 0, ulba.RuntimeResult{}, false
	}
	return line.Index, *line.Result, true
}

func (runtimeSweepEngine) Body(_ runtimeSweepReq, units []ulba.RuntimeResult) (RuntimeSweepResponse, error) {
	return RuntimeSweepResponse{Summary: ulba.SummarizeRuntimeSweep(units), Results: units}, nil
}
