// Package ulba reproduces "On the Benefits of Anticipating Load Imbalance
// for Performance Optimization of Parallel Applications" (Boulmier, Raynaud,
// Abdennadher, Chopard; IEEE CLUSTER 2019; arXiv:1909.07168) and grows it
// into a composable, servable experimentation harness for load-balancing
// policies.
//
// ULBA — the Underloading Load Balancing Approach — anticipates load
// imbalance instead of merely reacting to it: processing elements whose
// workload increase rate (WIR) is a statistical outlier receive less than
// the even share at each load-balancing step, so the application rebalances
// itself through its own dynamics before imbalance degrades performance
// again.
//
// # Policy axes and registries
//
// The public API is organized around the policy axes the paper studies,
// all pluggable and registry-backed so new policies compose with the
// existing harness:
//
//   - Planner — when to balance, decided ahead of time on the analytic
//     model (Eqs. 1-12): SigmaPlusPlanner (the paper's proposal, registry
//     name "sigma+"), MenonPlanner ("menon"), PeriodicPlanner ("periodic"),
//     AnnealPlanner ("anneal", the heuristic baseline of Fig. 2).
//     NewPlanner / PlannerNames select planners by name.
//   - Trigger — when to balance, decided at runtime from the measured
//     iteration times: DegradationTrigger (the adaptive rule of Zhai et
//     al., the default; "degradation"), MenonTrigger ("menon"),
//     PeriodicTrigger ("periodic"), NeverTrigger ("never"), and
//     ScheduleTrigger ("schedule"), which replays a planned schedule on
//     the simulated cluster. NewTrigger / TriggerNames mirror the planner
//     registry.
//   - Workload — what the runtime scenario engine executes: a registry of
//     synthetic load dynamics ("stationary", "linear" and "exponential"
//     drift, "bursty", heavy-tailed "outlier" WIR, recorded-"trace"
//     replay) whose pure weight functions make every policy comparison
//     noise-free. NewWorkload / WorkloadNames complete the registry trio.
//
// The registries are fixed, sorted tables: nothing registers at run time,
// so a name means the same policy for the life of the process, which the
// service's content addresses rely on. Their names are the exact
// vocabulary of the CLI flags (-planner, -trigger, -workload), of the
// DESIGN.md tables, and of the HTTP service's GET /v1/registries endpoint;
// a test pins the three views against each other.
//
// PlannerSpec, TriggerSpec, and WorkloadSpec are the wire-format
// counterpart of the policy values: serializable structs that name a
// registered policy plus its configuration knobs and resolve into live
// values. They are how config-driven frontends — the HTTP service, stored
// experiment descriptions — construct the same engines the in-process
// builders do.
//
// # Engines
//
// Four engines share one option vocabulary (functional options, eagerly
// validated, scope-checked per builder):
//
//   - Experiment (New): one fluid-with-erosion application run on the
//     simulated distributed-memory cluster, with Compare for the
//     standard-method baseline on identical physics.
//   - Sweep (NewSweep): the concurrent batch engine over model instances
//     behind the paper's Fig. 3 — streams per-instance Comparison results
//     and aggregates them bit-identically for every worker count.
//   - RuntimeExperiment (NewRuntime): one synthetic scenario (any Workload
//     under any Trigger or Planner) executed on the simulated cluster and
//     measured against the no-LB baseline and the perfect-knowledge bound.
//   - RuntimeSweep (NewRuntimeSweep): the batch engine over scenarios,
//     sharing the worker pool and aggregation contracts with Sweep.
//
// SummarizeSweep and SummarizeRuntimeSweep expose the engines' input-order
// aggregation to Stream consumers that collect results themselves; the
// service's sweep and runtime-sweep jobs build their bodies with them.
//
// # Service layer
//
// internal/server and cmd/ulba-serve put the four engines behind an
// HTTP/JSON service. The synchronous endpoints — POST /v1/experiment,
// /v1/sweep, /v1/runtime, /v1/runtime-sweep — map requests onto the
// builders through the spec types and accept batched instance sets. A
// deterministic content-addressed result cache (LRU by byte budget,
// single-flight deduplication of concurrent identical requests) serves
// repeated work without recomputing — sound because every engine result is
// a pure function of its request.
//
// The /v1/jobs family (internal/jobs) is the asynchronous alternative for
// work too large to hold a connection open: POST /v1/jobs submits any of
// the four request types and returns a job id immediately; GET
// /v1/jobs/{id} reports the queued/running/done/failed/cancelled state
// machine with per-instance progress counters, GET /v1/jobs/{id}/stream
// follows the as-completed NDJSON lines live (the one way to follow a
// batch unit by unit), GET /v1/jobs/{id}/result serves the final body —
// bit-identical to the synchronous endpoint's response for the same
// request — and DELETE cancels. With a store
// directory configured (ulba-serve -store-dir), rendered bodies persist in
// an append-only content-addressed log that is replayed into the cache on
// startup, so identical requests are served across restarts without
// recomputation; running sweep jobs additionally checkpoint every
// completed instance, so a server killed mid-job resumes — rather than
// recomputes — when the identical request is resubmitted. Anticipation
// applied to the serving layer itself: plan the work, survive the
// interruption, never redo what is already known.
//
// See API.md for the HTTP reference (including the job state machine and
// curl examples) and DESIGN.md ("Service layer") for the cache-key,
// single-flight, job stream, and persistence/resume contracts.
//
// # Evaluation core
//
// The hot loop of the synthetic experiments — one instance scanned over a
// 100-point alpha grid — runs on an allocation-free incremental evaluator
// (internal/schedule.Evaluator). It walks the sigma+ schedule on the fly
// instead of materializing a Schedule per grid point, prunes grid alphas
// whose partial total already exceeds the best seen (the running sum is
// monotone), and keeps every floating-point operation in the same order as
// the materialized slow path, so its totals are bit-identical, not merely
// close. Sweep dispatches to this fast path for the default sigma+ policy
// (planner omitted, or SigmaPlusPlanner installed explicitly) and falls
// back to the general Planner.Plan path only for custom planners; a golden
// test pins the two paths to identical SweepSummary output.
//
// # Determinism
//
// Four guarantees compose: per-instance evaluations and scenario runs are
// pure functions of their parameters; both sweep engines aggregate in
// input order regardless of completion order, so summaries are
// bit-identical for every worker count; the evaluator fast path is
// bit-identical to the slow path, so enabling the optimization is
// unobservable in results; and therefore a served response is bit-identical
// to the in-process result, which is what makes the service's result cache
// sound — and, extended across time, what makes the persistent store and
// the job subsystem sound: an async job's result bytes equal the
// synchronous response, and a checkpoint-resumed job's bytes equal an
// uninterrupted run's. The determinism pin tests hold the model sweep, the
// runtime sweep, the exemplar matrix and one served body to recorded
// values; the benchmark in bench/ (bash bench/run.sh) measures performance.
//
// Quick start:
//
//	exp, err := ulba.New(32,
//	        ulba.WithMethod(ulba.ULBA),
//	        ulba.WithAlpha(0.4),
//	        ulba.WithTrigger(ulba.DegradationTrigger{}),
//	)
//	if err != nil { ... }
//	res, err := exp.Run(ctx)
//	// res.TotalTime, res.Usage, res.LBIters ...
//
//	cmp, err := exp.Compare(ctx) // same instance under the standard method too
//	// cmp.Gain(), cmp.CallsAvoided()
//
// A model-side batch sweep (the engine behind Fig. 3):
//
//	sweep, err := ulba.NewSweep(ulba.WithWorkers(8))
//	summary, comps, err := sweep.Run(ctx, ulba.SampleInstances(seed, 1000))
//	// summary.Gains.Median, summary.MeanBestAlpha ...
//
// And a runtime scenario — execute a workload instead of evaluating the
// model:
//
//	rexp, err := ulba.NewRuntime(8,
//	        ulba.WithWorkload(ulba.BurstyWorkload{}),
//	        ulba.WithIterations(200),
//	)
//	rres, err := rexp.Run(ctx)
//	// rres.Gain(), rres.Efficiency(), rres.Timeline.LBCount() ...
//
// The package remains a facade over the internal building blocks:
//
//   - the analytic application model of the paper (Eqs. 1-12): per-iteration
//     times under the standard method and under ULBA, the LB-interval bounds
//     sigma- and sigma+, and Menon's optimal interval tau;
//   - LB schedules and their total-time evaluation (Eq. 4), plus a
//     simulated-annealing schedule search (the paper's heuristic baseline);
//   - the Table II random-instance generator and the synthetic experiment
//     drivers of Figs. 2 and 3;
//   - a simulated distributed-memory runtime (goroutine ranks, virtual
//     clocks, Hockney cost model) standing in for MPI;
//   - the fluid-with-erosion application of Section IV-B with its
//     centralized stripe partitioner, gossip WIR dissemination, z-score
//     overload detection, and the adaptive degradation trigger, runnable
//     under the standard method or ULBA;
//   - the synthetic runtime-scenario runner (internal/lb.RunSynth) behind
//     the Workload engine, with its no-LB and perfect-knowledge reference
//     points.
//
// See the examples directory for complete programs, DESIGN.md for the API
// surface and the per-experiment index, and API.md for the HTTP service
// reference.
package ulba
