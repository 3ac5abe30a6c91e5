// Command ulba-bench runs a pinned sweep workload and records the
// performance trajectory of the evaluation core as BENCH_sweep.json:
// instances per second, nanoseconds and heap allocations per instance on
// the fast path, and the speedup over the materialize-a-Schedule-per-alpha
// slow path. CI runs it in -short mode on every PR and uploads the JSON as
// an artifact, so regressions in the hot path show up as a broken
// trajectory rather than an anecdote.
//
// The output file is a JSON array and every run appends one timestamped
// entry (a legacy single-object file is wrapped on first append), so the
// trajectory accumulates instead of overwriting itself. The workload is
// pinned (seed, instance count, alpha grid), and the summary block of each
// entry is bit-deterministic: any change there means the evaluation
// semantics moved, not just the clock. The tool exits non-zero if the fast
// and slow paths disagree, or if -against finds the deterministic fields
// drifted from a baseline trajectory's latest entry.
//
// Examples:
//
//	ulba-bench                          # full workload, appends to BENCH_sweep.json
//	ulba-bench -short                   # CI-sized workload
//	ulba-bench -instances 5000 -out /tmp/bench.json
//	ulba-bench -short -out /tmp/bench.json -against BENCH_sweep.json
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/jobs"
	"ulba/internal/loadgen"
	"ulba/internal/schedule"
	"ulba/internal/server"
)

// slowSigmaPlanner plans the same sigma+ schedules as the built-in planner
// but through a distinct type, which forces the Sweep onto the general
// Planner.Plan path — the pre-evaluator slow baseline.
type slowSigmaPlanner struct{}

func (slowSigmaPlanner) Name() string { return "sigma+slow" }

func (slowSigmaPlanner) Plan(p ulba.ModelParams, gamma int) (ulba.Schedule, error) {
	return ulba.SigmaPlusPlanner{}.Plan(p, gamma)
}

// summaryRecord is the deterministic part of the trajectory: identical
// whenever the evaluation semantics (not the hardware) are identical.
type summaryRecord struct {
	MedianGain    float64 `json:"median_gain"`
	MeanGain      float64 `json:"mean_gain"`
	MeanBestAlpha float64 `json:"mean_best_alpha"`
	ULBAWins      int     `json:"ulba_wins"`
}

// benchRecord is one BENCH_sweep.json entry.
type benchRecord struct {
	Name      string `json:"name"`
	Timestamp string `json:"timestamp"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Short     bool   `json:"short"`

	Instances int    `json:"instances"`
	AlphaGrid int    `json:"alpha_grid"`
	Workers   int    `json:"workers"`
	Seed      uint64 `json:"seed"`

	FastSeconds       float64 `json:"fast_seconds"`
	InstancesPerSec   float64 `json:"instances_per_sec"`
	NsPerInstance     float64 `json:"ns_per_instance"`
	AllocsPerInstance float64 `json:"allocs_per_instance"`

	SlowSeconds   float64       `json:"slow_seconds,omitempty"`
	SlowNsPerInst float64       `json:"slow_ns_per_instance,omitempty"`
	Speedup       float64       `json:"speedup,omitempty"`
	MeanLBSteps   float64       `json:"mean_lb_steps"`
	Summary       summaryRecord `json:"summary"`

	Runtime *runtimeRecord `json:"runtime,omitempty"`
	Matrix  *matrixRecord  `json:"matrix,omitempty"`
	Server  *serverRecord  `json:"server,omitempty"`
	Jobs    *jobsRecord    `json:"jobs,omitempty"`
	Loadgen *loadgenRecord `json:"loadgen,omitempty"`
}

// matrixRecord is the exemplar-matrix entry of the trajectory: a pinned
// planner x trigger matrix over the exemplar-derived workloads (minife,
// amr, target), each cell run homogeneous and with a heterogeneous speed
// vector. The matrix is fully pinned — it does not scale with -short — so
// its deterministic fields participate in every -against diff: the
// SHA-256 covers the marshaled result of every cell, and any change there
// means the scenario engine's semantics moved.
type matrixRecord struct {
	Cells       int     `json:"cells"`
	Workloads   int     `json:"workloads"`
	Policies    int     `json:"policies"`
	Seconds     float64 `json:"seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`

	MeanGain      float64 `json:"mean_gain"`
	MeanWLI       float64 `json:"mean_wli"`
	ResultsSHA256 string  `json:"results_sha256"`
}

// loadgenRecord is the sustained-traffic entry of the trajectory: an
// in-process ulba-serve under cmd/ulba-loadgen's open-loop Poisson ramp
// (internal/loadgen.FindMaxRate). MaxSustainedRPS is the highest offered
// rate the server held with clean responses, bounded shedding, and >= 90%
// completion; the endpoint blocks carry the tail latencies of that stage.
// Everything here is the clock — none of it participates in -against.
type loadgenRecord struct {
	Clients         int     `json:"clients"`
	StageSeconds    float64 `json:"stage_seconds"`
	MaxSustainedRPS float64 `json:"max_sustained_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	Completed       uint64  `json:"completed"`
	Shed            uint64  `json:"shed"`

	Endpoints []loadgen.EndpointReport `json:"endpoints"`
}

// jobsRecord is the async entry of the trajectory: the job subsystem
// (internal/jobs + the /v1/jobs endpoints) under a pinned submission mix
// against a store-backed server, then the same mix resubmitted after a
// simulated restart — measuring both cold job throughput and the
// persistent store's serve-without-recompute rate. ResponseSHA256 hashes
// the first job's result body and must equal the synchronous path's hash
// for the same request family: async results are bit-identical by
// contract.
type jobsRecord struct {
	Jobs            int     `json:"jobs"`
	Distinct        int     `json:"distinct"`
	InstancesPerJob int     `json:"instances_per_job"`
	Seconds         float64 `json:"seconds"`
	JobsPerSec      float64 `json:"jobs_per_sec"`
	EngineRuns      uint64  `json:"engine_runs"`

	// The restart leg: a fresh server over the same store directory,
	// identical submissions. RestartEngineRuns is 0 when persistence works.
	RestartSeconds    float64 `json:"restart_seconds"`
	RestartEngineRuns uint64  `json:"restart_engine_runs"`

	StoreEntries   int    `json:"store_entries"`
	StoreBytes     int64  `json:"store_bytes"`
	ResponseSHA256 string `json:"response_sha256"`
}

// serverRecord is the service-layer entry of the trajectory: the HTTP
// server (internal/server) under a pinned request mix of distinct and
// repeated sweep calls, so both cold-path throughput and the cache's
// hit-serving rate are on the record. ResponseSHA256 hashes the body of
// the first pinned request and is bit-deterministic like the summary
// blocks: any change there means served results moved, not just the clock.
type serverRecord struct {
	Requests          int     `json:"requests"`
	Distinct          int     `json:"distinct"`
	Clients           int     `json:"clients"`
	InstancesPerReq   int     `json:"instances_per_request"`
	Seconds           float64 `json:"seconds"`
	RequestsPerSec    float64 `json:"requests_per_sec"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	SingleFlightJoins uint64  `json:"single_flight_joins"`
	EngineRuns        uint64  `json:"engine_runs"`
	ResponseSHA256    string  `json:"response_sha256"`
}

// runtimeRecord is the runtime-sweep entry of the trajectory: the scenario
// engine running a pinned mix of every registered workload over the
// simulated cluster. The summary block is bit-deterministic like the model
// sweep's; the throughput numbers are the clock.
type runtimeRecord struct {
	Scenarios        int     `json:"scenarios"`
	Workloads        int     `json:"workloads"`
	Seconds          float64 `json:"seconds"`
	ScenariosPerSec  float64 `json:"scenarios_per_sec"`
	AllocsPerInst    float64 `json:"allocs_per_scenario"`
	MedianGain       float64 `json:"median_gain"`
	MeanGain         float64 `json:"mean_gain"`
	MedianEfficiency float64 `json:"median_efficiency"`
	MeanLBCalls      float64 `json:"mean_lb_calls"`
	MeanUsage        float64 `json:"mean_usage"`
	MeanWLI          float64 `json:"mean_wli"`
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, args...)
	os.Exit(1)
}

func main() {
	var (
		instances  = flag.Int("instances", 2000, "number of Table II instances in the pinned workload")
		alphas     = flag.Int("alphas", 100, "alpha grid size (paper: 100)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "sweep workers")
		seed       = flag.Uint64("seed", 2019, "instance-sampling seed (pinned: changing it forks the trajectory)")
		short      = flag.Bool("short", false, "CI-sized workload (200 instances and 12 runtime scenarios unless set explicitly)")
		noSlow     = flag.Bool("noslow", false, "skip the slow-path baseline (no speedup field)")
		scenarios  = flag.Int("runtime-scenarios", 24, "pinned runtime-sweep scenarios (0 skips the runtime entry)")
		matrix     = flag.Bool("matrix", true, "run the pinned planner x trigger matrix over the exemplar workloads")
		serverReqs = flag.Int("server-requests", 64, "pinned HTTP sweep requests against an in-process ulba-serve (0 skips the server entry)")
		jobReqs    = flag.Int("job-requests", 32, "pinned async job submissions against a store-backed ulba-serve (0 skips the jobs entry)")
		lgStage    = flag.Duration("loadgen-stage", 2*time.Second, "measurement window per load-ramp stage (0 skips the loadgen entry)")
		lgClients  = flag.Int("loadgen-clients", 256, "loadgen client pool for the rate ramp")
		against    = flag.String("against", "", "baseline trajectory to diff the deterministic fields of this run against (its latest entry); exit non-zero on drift")
		out        = flag.String("out", "BENCH_sweep.json", "trajectory file to append this run's entry to; - prints the entry to stdout")
	)
	flag.Parse()
	instancesSet, scenariosSet, serverReqsSet, jobReqsSet, lgStageSet, lgClientsSet := false, false, false, false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "instances":
			instancesSet = true
		case "runtime-scenarios":
			scenariosSet = true
		case "server-requests":
			serverReqsSet = true
		case "job-requests":
			jobReqsSet = true
		case "loadgen-stage":
			lgStageSet = true
		case "loadgen-clients":
			lgClientsSet = true
		}
	})
	if *short && !instancesSet {
		*instances = 200
	}
	if *short && !scenariosSet {
		*scenarios = 12
	}
	if *short && !serverReqsSet {
		*serverReqs = 32
	}
	if *short && !jobReqsSet {
		*jobReqs = 16
	}
	if *short && !lgStageSet {
		*lgStage = time.Second
	}
	if *short && !lgClientsSet {
		*lgClients = 64
	}
	if *instances <= 0 {
		fatal(fmt.Sprintf("-instances must be positive, got %d", *instances))
	}
	ctx := context.Background()

	params := ulba.SampleInstances(*seed, *instances)

	fast, err := ulba.NewSweep(ulba.WithAlphaGrid(*alphas), ulba.WithWorkers(*workers))
	if err != nil {
		fatal(err)
	}

	// Warm up once so one-time costs (scheduler, page faults) stay out of
	// the measured run, then measure wall time and heap allocations.
	if _, _, err := fast.Run(ctx, params[:min(len(params), 32)]); err != nil {
		fatal("warmup:", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fastSum, fastComps, err := fast.Run(ctx, params)
	fastDur := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		fatal("fast sweep:", err)
	}

	rec := benchRecord{
		Name:      "sweep",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Short:     *short,
		Instances: *instances,
		AlphaGrid: *alphas,
		Workers:   *workers,
		Seed:      *seed,

		FastSeconds:       fastDur.Seconds(),
		InstancesPerSec:   float64(len(params)) / fastDur.Seconds(),
		NsPerInstance:     float64(fastDur.Nanoseconds()) / float64(len(params)),
		AllocsPerInstance: float64(after.Mallocs-before.Mallocs) / float64(len(params)),
		Summary: summaryRecord{
			MedianGain:    fastSum.Gains.Median,
			MeanGain:      fastSum.Gains.Mean,
			MeanBestAlpha: fastSum.MeanBestAlpha,
			ULBAWins:      fastSum.ULBAWins,
		},
	}

	// Mean sigma+ schedule length at each instance's best alpha, via the
	// evaluator's scratch buffer (no per-instance schedule allocations).
	var ev schedule.Evaluator
	steps := 0
	for _, c := range fastComps {
		steps += len(ev.SigmaPlus(c.Params.WithAlpha(c.BestAlpha)))
	}
	rec.MeanLBSteps = float64(steps) / float64(len(fastComps))

	if !*noSlow {
		slow, err := ulba.NewSweep(ulba.WithAlphaGrid(*alphas), ulba.WithWorkers(*workers),
			ulba.WithPlanner(slowSigmaPlanner{}))
		if err != nil {
			fatal(err)
		}
		start = time.Now()
		slowSum, _, err := slow.Run(ctx, params)
		slowDur := time.Since(start)
		if err != nil {
			fatal("slow sweep:", err)
		}
		if slowSum != fastSum {
			fatal(fmt.Sprintf("fast and slow paths disagree — evaluator bug:\nfast: %+v\nslow: %+v", fastSum, slowSum))
		}
		rec.SlowSeconds = slowDur.Seconds()
		rec.SlowNsPerInst = float64(slowDur.Nanoseconds()) / float64(len(params))
		rec.Speedup = slowDur.Seconds() / fastDur.Seconds()
	}

	if *scenarios > 0 {
		rt, err := measureRuntimeSweep(ctx, *scenarios, *seed, *workers)
		if err != nil {
			fatal("runtime sweep:", err)
		}
		rec.Runtime = rt
	}

	if *matrix {
		mr, err := measureMatrix(ctx, *seed, *workers)
		if err != nil {
			fatal("matrix:", err)
		}
		rec.Matrix = mr
	}

	if *serverReqs > 0 {
		sr, err := measureServer(*serverReqs, *seed, *workers)
		if err != nil {
			fatal("server:", err)
		}
		rec.Server = sr
	}

	if *jobReqs > 0 {
		jr, err := measureJobs(*jobReqs, *seed)
		if err != nil {
			fatal("jobs:", err)
		}
		rec.Jobs = jr
	}

	if *lgStage > 0 {
		lr, err := measureLoadgen(ctx, *lgClients, *lgStage)
		if err != nil {
			fatal("loadgen:", err)
		}
		rec.Loadgen = lr
	}

	if *against != "" {
		if err := diffAgainst(*against, rec); err != nil {
			fatal("baseline drift:", err)
		}
		fmt.Fprintf(os.Stderr, "deterministic fields match the latest %s entry\n", *against)
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := appendEntry(*out, rec); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "sweep: %d instances x %d alphas, %d workers: %.0f instances/sec, %.0f ns/instance, %.2f allocs/instance",
		rec.Instances, rec.AlphaGrid, rec.Workers, rec.InstancesPerSec, rec.NsPerInstance, rec.AllocsPerInstance)
	if rec.Speedup > 0 {
		fmt.Fprintf(os.Stderr, ", %.1fx over slow path", rec.Speedup)
	}
	fmt.Fprintln(os.Stderr)
	if rec.Runtime != nil {
		fmt.Fprintf(os.Stderr, "runtime: %d scenarios x %d workloads: %.1f scenarios/sec, %.0f allocs/scenario, mean gain %+.2f%%\n",
			rec.Runtime.Scenarios, rec.Runtime.Workloads, rec.Runtime.ScenariosPerSec,
			rec.Runtime.AllocsPerInst, rec.Runtime.MeanGain*100)
	}
	if rec.Matrix != nil {
		fmt.Fprintf(os.Stderr, "matrix: %d cells (%d workloads x %d policies x 2 clusters): %.0f cells/sec, mean gain %+.2f%%, mean WLI %.3f, sha %.12s\n",
			rec.Matrix.Cells, rec.Matrix.Workloads, rec.Matrix.Policies, rec.Matrix.CellsPerSec,
			rec.Matrix.MeanGain*100, rec.Matrix.MeanWLI, rec.Matrix.ResultsSHA256)
	}
	if rec.Server != nil {
		fmt.Fprintf(os.Stderr, "server: %d requests (%d distinct, %d clients): %.0f requests/sec, %d hits + %d joins over %d engine runs\n",
			rec.Server.Requests, rec.Server.Distinct, rec.Server.Clients, rec.Server.RequestsPerSec,
			rec.Server.CacheHits, rec.Server.SingleFlightJoins, rec.Server.EngineRuns)
	}
	if rec.Jobs != nil {
		fmt.Fprintf(os.Stderr, "jobs: %d submissions (%d distinct): %.1f jobs/sec cold (%d engine runs), resubmit after restart %.0f ms (%d engine runs)\n",
			rec.Jobs.Jobs, rec.Jobs.Distinct, rec.Jobs.JobsPerSec, rec.Jobs.EngineRuns,
			rec.Jobs.RestartSeconds*1000, rec.Jobs.RestartEngineRuns)
	}
	if rec.Loadgen != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %d clients, %gs stages: %.0f req/s max sustained (%.0f achieved, %d shed)\n",
			rec.Loadgen.Clients, rec.Loadgen.StageSeconds, rec.Loadgen.MaxSustainedRPS,
			rec.Loadgen.AchievedRPS, rec.Loadgen.Shed)
	}
}

// loadTrajectory reads a trajectory file: a JSON array of entries, or (the
// legacy format) one bare entry object, wrapped into a one-element slice.
// A missing or empty file is an empty trajectory.
func loadTrajectory(path string) ([]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		return nil, nil
	}
	if data[0] == '[' {
		var entries []json.RawMessage
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return entries, nil
	}
	var one json.RawMessage
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []json.RawMessage{one}, nil
}

// appendEntry appends rec to the trajectory at path, preserving every
// earlier entry (a legacy single-object file becomes the first element).
func appendEntry(path string, rec benchRecord) error {
	entries, err := loadTrajectory(path)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	entries = append(entries, raw)
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// diffAgainst compares this run's deterministic fields against the latest
// entry of a baseline trajectory. Clock-dependent fields never participate;
// workload-shaped fields (the sweep summary, the runtime summary) only
// participate when both runs pinned the same workload, so a -short CI run
// can still diff its response hashes against a full-size committed
// baseline.
func diffAgainst(path string, rec benchRecord) error {
	entries, err := loadTrajectory(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s has no entries", path)
	}
	var base benchRecord
	if err := json.Unmarshal(entries[len(entries)-1], &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Seed != rec.Seed {
		return fmt.Errorf("baseline seed %d != %d — different trajectories", base.Seed, rec.Seed)
	}
	if base.Instances == rec.Instances && base.AlphaGrid == rec.AlphaGrid {
		if base.Summary != rec.Summary {
			return fmt.Errorf("sweep summary moved:\nbaseline: %+v\nthis run: %+v", base.Summary, rec.Summary)
		}
		if base.MeanLBSteps != rec.MeanLBSteps {
			return fmt.Errorf("mean_lb_steps moved: %v -> %v", base.MeanLBSteps, rec.MeanLBSteps)
		}
	}
	if base.Runtime != nil && rec.Runtime != nil && base.Runtime.Scenarios == rec.Runtime.Scenarios {
		checks := []struct {
			name       string
			base, this float64
		}{
			{"runtime median_gain", base.Runtime.MedianGain, rec.Runtime.MedianGain},
			{"runtime mean_gain", base.Runtime.MeanGain, rec.Runtime.MeanGain},
			{"runtime median_efficiency", base.Runtime.MedianEfficiency, rec.Runtime.MedianEfficiency},
			{"runtime mean_lb_calls", base.Runtime.MeanLBCalls, rec.Runtime.MeanLBCalls},
			{"runtime mean_usage", base.Runtime.MeanUsage, rec.Runtime.MeanUsage},
			{"runtime mean_wli", base.Runtime.MeanWLI, rec.Runtime.MeanWLI},
		}
		for _, c := range checks {
			if c.base != c.this {
				return fmt.Errorf("%s moved: %v -> %v", c.name, c.base, c.this)
			}
		}
		// Perf gates on the runtime leg. Throughput is clock-dependent and
		// allocation counts shift with the Go version, so these are wide
		// ratio gates rather than equalities: they only catch a fast path
		// that quietly fell off a cliff (an accidental O(n) regression or a
		// reintroduced per-iteration allocation), not machine-to-machine
		// noise.
		if base.Runtime.AllocsPerInst > 0 && rec.Runtime.AllocsPerInst > base.Runtime.AllocsPerInst*1.5 {
			return fmt.Errorf("runtime allocs_per_scenario regressed: %.0f -> %.0f (limit %.0f)",
				base.Runtime.AllocsPerInst, rec.Runtime.AllocsPerInst, base.Runtime.AllocsPerInst*1.5)
		}
		if base.Runtime.ScenariosPerSec > 0 && rec.Runtime.ScenariosPerSec < base.Runtime.ScenariosPerSec/3 {
			return fmt.Errorf("runtime scenarios_per_sec regressed: %.1f -> %.1f (floor %.1f)",
				base.Runtime.ScenariosPerSec, rec.Runtime.ScenariosPerSec, base.Runtime.ScenariosPerSec/3)
		}
	}
	if base.Matrix != nil && rec.Matrix != nil && base.Matrix.Cells == rec.Matrix.Cells {
		if base.Matrix.ResultsSHA256 != rec.Matrix.ResultsSHA256 {
			return fmt.Errorf("matrix results hash moved: %s -> %s — scenario engine semantics changed",
				base.Matrix.ResultsSHA256, rec.Matrix.ResultsSHA256)
		}
		if base.Matrix.MeanGain != rec.Matrix.MeanGain {
			return fmt.Errorf("matrix mean_gain moved: %v -> %v", base.Matrix.MeanGain, rec.Matrix.MeanGain)
		}
		if base.Matrix.MeanWLI != rec.Matrix.MeanWLI {
			return fmt.Errorf("matrix mean_wli moved: %v -> %v", base.Matrix.MeanWLI, rec.Matrix.MeanWLI)
		}
	}
	if base.Server != nil && rec.Server != nil && base.Server.ResponseSHA256 != rec.Server.ResponseSHA256 {
		return fmt.Errorf("server response hash moved: %s -> %s — served bytes changed",
			base.Server.ResponseSHA256, rec.Server.ResponseSHA256)
	}
	if base.Jobs != nil && rec.Jobs != nil && base.Jobs.ResponseSHA256 != rec.Jobs.ResponseSHA256 {
		return fmt.Errorf("jobs response hash moved: %s -> %s — async results changed",
			base.Jobs.ResponseSHA256, rec.Jobs.ResponseSHA256)
	}
	return nil
}

// measureLoadgen boots an in-process ulba-serve on a real TCP listener and
// ramps cmd/ulba-loadgen's open-loop Poisson arrival process against it
// until the server stops sustaining the rate, recording the highest
// sustained rate and that stage's per-endpoint tail latencies.
func measureLoadgen(ctx context.Context, clients int, stage time.Duration) (*loadgenRecord, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	defer httpSrv.Close()
	go httpSrv.Serve(ln)

	cfg := loadgen.Config{
		Targets: []string{"http://" + ln.Addr().String()},
		Clients: clients,
		Warmup:  stage / 4,
		Timeout: 30 * time.Second,
	}
	rate, rep, err := loadgen.FindMaxRate(ctx, cfg, 50, stage, 0.01)
	if err != nil {
		return nil, err
	}
	return &loadgenRecord{
		Clients:         rep.Clients,
		StageSeconds:    stage.Seconds(),
		MaxSustainedRPS: rate,
		AchievedRPS:     rep.AchievedRPS,
		Completed:       rep.Completed,
		Shed:            rep.Shed,
		Endpoints:       rep.Endpoints,
	}, nil
}

// measureJobs drives the asynchronous surface end to end over a real TCP
// listener: a pinned mix of sweep job submissions (distinct bodies cycled,
// so dedup matters) against a store-backed server, polled to completion;
// then a fresh server over the same store directory replays the identical
// submissions — the restart leg, which persistence must serve with zero
// engine runs. Every repeated body is verified bit-identical before the
// first one's hash goes on the record.
func measureJobs(count int, seed uint64) (*jobsRecord, error) {
	const (
		distinct        = 4
		instancesPerJob = 200
	)
	dir, err := os.MkdirTemp("", "ulba-bench-jobs")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	body := func(i int) string {
		return fmt.Sprintf(`{"type":"sweep","request":{"sample":{"seed":%d,"n":%d},"alpha_grid":50}}`,
			seed+uint64(i%distinct), instancesPerJob)
	}

	// runMix boots a server over dir, submits every job, polls them all to
	// completion, and returns the result bodies with the elapsed time and
	// the engine-run counter.
	runMix := func() (bodies [][]byte, seconds float64, engineRuns uint64, storeEntries int, storeBytes int64, err error) {
		store, err := jobs.Open(dir)
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
		srv, err := server.New(server.Config{Store: store})
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
		defer srv.Close(context.Background())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		defer httpSrv.Close()
		go httpSrv.Serve(ln)
		base := "http://" + ln.Addr().String()

		start := time.Now()
		ids := make([]string, count)
		for i := range ids {
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body(i)))
			if err != nil {
				return nil, 0, 0, 0, 0, err
			}
			var st struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || st.ID == "" {
				return nil, 0, 0, 0, 0, fmt.Errorf("job submission %d: %v", i, err)
			}
			ids[i] = st.ID
		}
		for _, id := range ids {
			for {
				resp, err := http.Get(base + "/v1/jobs/" + id)
				if err != nil {
					return nil, 0, 0, 0, 0, err
				}
				var st struct {
					State string `json:"state"`
					Error string `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					return nil, 0, 0, 0, 0, err
				}
				if st.State == "done" {
					break
				}
				if st.State == "failed" || st.State == "cancelled" {
					return nil, 0, 0, 0, 0, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		bodies = make([][]byte, count)
		for i, id := range ids {
			resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
			if err != nil {
				return nil, 0, 0, 0, 0, err
			}
			buf, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, 0, 0, 0, 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, 0, 0, 0, 0, fmt.Errorf("job %s result: status %d: %s", id, resp.StatusCode, buf)
			}
			bodies[i] = buf
		}
		seconds = time.Since(start).Seconds()
		stats := srv.Stats()
		storeEntries, storeBytes = 0, 0
		if stats.Store != nil {
			storeEntries, storeBytes = stats.Store.Entries, stats.Store.Bytes
		}
		return bodies, seconds, stats.EngineRuns, storeEntries, storeBytes, nil
	}

	cold, coldSecs, coldRuns, _, _, err := runMix()
	if err != nil {
		return nil, err
	}
	warm, warmSecs, warmRuns, entries, bytesOnDisk, err := runMix()
	if err != nil {
		return nil, err
	}

	// Determinism check across jobs and across the restart: every body of
	// a distinct family must be bit-identical to its first occurrence.
	first := make(map[int][]byte, distinct)
	for i := 0; i < count; i++ {
		d := i % distinct
		if prev, ok := first[d]; !ok {
			first[d] = cold[i]
		} else if !bytes.Equal(prev, cold[i]) {
			return nil, fmt.Errorf("job %d served different bytes than an identical earlier job", i)
		}
		if !bytes.Equal(first[d], warm[i]) {
			return nil, fmt.Errorf("post-restart job %d served different bytes than before the restart", i)
		}
	}

	return &jobsRecord{
		Jobs:              count,
		Distinct:          min(distinct, count),
		InstancesPerJob:   instancesPerJob,
		Seconds:           coldSecs,
		JobsPerSec:        float64(count) / coldSecs,
		EngineRuns:        coldRuns,
		RestartSeconds:    warmSecs,
		RestartEngineRuns: warmRuns,
		StoreEntries:      entries,
		StoreBytes:        bytesOnDisk,
		ResponseSHA256:    fmt.Sprintf("%x", sha256.Sum256(first[0])),
	}, nil
}

// measureServer drives an in-process ulba-serve over a real TCP listener
// with a pinned request mix: `distinct` different sweep bodies cycled by
// concurrent clients, so most requests repeat a body some other client
// computes — the cache-and-dedup regime the service exists for. It records
// throughput, the cache counters, and the SHA-256 of the first body (every
// repetition of a body is verified bit-identical against its first
// occurrence before the hash goes on the record).
func measureServer(requests int, seed uint64, clients int) (*serverRecord, error) {
	const (
		distinct        = 8
		instancesPerReq = 200
	)
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	defer httpSrv.Close()
	go httpSrv.Serve(ln)
	url := "http://" + ln.Addr().String() + "/v1/sweep"

	body := func(i int) string {
		return fmt.Sprintf(`{"sample":{"seed":%d,"n":%d},"alpha_grid":50}`, seed+uint64(i%distinct), instancesPerReq)
	}
	if clients < 1 {
		clients = 1
	}
	post := func(i int) ([]byte, error) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body(i)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, buf)
		}
		return buf, nil
	}

	// Warm nothing: the first round's misses are part of the measurement.
	bodies := make([][]byte, requests)
	errs := make([]error, clients)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				buf, err := post(i)
				if err != nil {
					errs[c] = err
					return
				}
				bodies[i] = buf
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Determinism check: every repetition of a body must be bit-identical
	// to its first occurrence, whether it was computed, joined, or hit.
	first := make(map[int][]byte, distinct)
	for i, buf := range bodies {
		d := i % distinct
		if prev, ok := first[d]; !ok {
			first[d] = buf
		} else if !bytes.Equal(prev, buf) {
			return nil, fmt.Errorf("request %d served different bytes than an identical earlier request", i)
		}
	}

	stats := srv.Stats()
	return &serverRecord{
		Requests:          requests,
		Distinct:          min(distinct, requests),
		Clients:           clients,
		InstancesPerReq:   instancesPerReq,
		Seconds:           dur.Seconds(),
		RequestsPerSec:    float64(requests) / dur.Seconds(),
		CacheHits:         stats.Cache.Hits,
		CacheMisses:       stats.Cache.Misses,
		SingleFlightJoins: stats.Cache.Joins,
		EngineRuns:        stats.EngineRuns,
		ResponseSHA256:    fmt.Sprintf("%x", sha256.Sum256(first[0])),
	}, nil
}

// measureMatrix runs the pinned exemplar matrix: every combination of
// workload in {minife, amr, target}, policy in {degradation, wli,
// periodic triggers; sigma+, periodic planners}, and cluster in
// {homogeneous, heterogeneous [1, 2.5, 1, 4]}. Cell order is fixed, so
// the SHA-256 over the marshaled results pins every timeline bit.
func measureMatrix(ctx context.Context, seed uint64, workers int) (*matrixRecord, error) {
	workloads := []ulba.WorkloadSpec{
		{Name: "minife", Seed: seed},
		{Name: "amr", Seed: seed},
		{Name: "target", Seed: seed, Target: 2},
	}
	policies := []struct {
		trigger *ulba.TriggerSpec
		planner *ulba.PlannerSpec
	}{
		{trigger: &ulba.TriggerSpec{Name: "degradation"}},
		{trigger: &ulba.TriggerSpec{Name: "wli", Threshold: 0.2}},
		{trigger: &ulba.TriggerSpec{Name: "periodic", Every: 8}},
		{planner: &ulba.PlannerSpec{Name: "sigma+"}},
		{planner: &ulba.PlannerSpec{Name: "periodic", Every: 10}},
	}
	speedSets := [][]float64{nil, {1, 2.5, 1, 4}}

	exps := make([]*ulba.RuntimeExperiment, 0, len(workloads)*len(policies)*len(speedSets))
	for _, ws := range workloads {
		w, err := ws.Workload()
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			for _, speeds := range speedSets {
				opts := []ulba.Option{
					ulba.WithWorkload(w), ulba.WithIterations(60), ulba.WithWorkers(1),
				}
				if speeds != nil {
					opts = append(opts, ulba.WithSpeeds(speeds))
				}
				if pol.trigger != nil {
					t, err := pol.trigger.Trigger()
					if err != nil {
						return nil, err
					}
					opts = append(opts, ulba.WithTrigger(t))
				}
				if pol.planner != nil {
					pl, err := pol.planner.Planner()
					if err != nil {
						return nil, err
					}
					opts = append(opts, ulba.WithPlanner(pl))
				}
				exp, err := ulba.NewRuntime(4, opts...)
				if err != nil {
					return nil, fmt.Errorf("%s cell: %w", ws.Name, err)
				}
				exps = append(exps, exp)
			}
		}
	}

	sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	// Scenarios build their weight tables on the first Run; run every cell
	// once untimed so the timed region measures the scenario runs alone.
	if _, _, err := sweep.Run(ctx, exps); err != nil {
		return nil, err
	}
	start := time.Now()
	sum, results, err := sweep.Run(ctx, exps)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(results)
	if err != nil {
		return nil, err
	}
	return &matrixRecord{
		Cells:         len(exps),
		Workloads:     len(workloads),
		Policies:      len(policies),
		Seconds:       dur.Seconds(),
		CellsPerSec:   float64(len(exps)) / dur.Seconds(),
		MeanGain:      sum.Gains.Mean,
		MeanWLI:       sum.MeanWLI,
		ResultsSHA256: fmt.Sprintf("%x", sha256.Sum256(raw)),
	}, nil
}

// measureRuntimeSweep runs the pinned runtime-scenario mix through the
// RuntimeSweep engine and records its throughput and deterministic summary.
// The scenario set is a pure function of the seed and the registered
// workload names, so the summary block is part of the bit-deterministic
// trajectory.
func measureRuntimeSweep(ctx context.Context, n int, seed uint64, workers int) (*runtimeRecord, error) {
	exps, scens, err := cli.BuildScenarios(seed, n)
	if err != nil {
		return nil, err
	}
	distinct := make(map[string]bool, len(scens))
	for _, sc := range scens {
		distinct[sc.Workload] = true
	}
	sweep, err := ulba.NewRuntimeSweep(ulba.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	// Scenarios build their weight tables on the first Run: warm every
	// scenario untimed, then measure wall time and heap allocations of the
	// scenario runs alone.
	if _, _, err := sweep.Run(ctx, exps); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sum, _, err := sweep.Run(ctx, exps)
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	return &runtimeRecord{
		Scenarios:        n,
		Workloads:        len(distinct),
		Seconds:          dur.Seconds(),
		ScenariosPerSec:  float64(n) / dur.Seconds(),
		AllocsPerInst:    float64(after.Mallocs-before.Mallocs) / float64(n),
		MedianGain:       sum.Gains.Median,
		MeanGain:         sum.Gains.Mean,
		MedianEfficiency: sum.Efficiencies.Median,
		MeanLBCalls:      sum.MeanLBCalls,
		MeanUsage:        sum.MeanUsage,
		MeanWLI:          sum.MeanWLI,
	}, nil
}
