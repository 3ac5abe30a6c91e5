package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ulba"
	"ulba/internal/cli"
	"ulba/internal/engine"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestRegistries(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/registries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeBody[registriesResponse](t, resp)
	checks := []struct {
		name string
		got  []string
		want []string
	}{
		{"planners", got.Planners, ulba.PlannerNames()},
		{"triggers", got.Triggers, ulba.TriggerNames()},
		{"workloads", got.Workloads, ulba.WorkloadNames()},
		{"engines", got.Engines, engine.TypeNames()},
	}
	for _, c := range checks {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestRequestValidation pins the 4xx surface: every malformed or
// inconsistent request is rejected before any engine work, with an error
// message naming the problem.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name    string
		path    string
		body    string
		status  int
		errPart string
	}{
		{"malformed json", "/v1/sweep", `{`, 400, "invalid request body"},
		{"unknown field", "/v1/sweep", `{"bogus": 1}`, 400, "bogus"},
		{"trailing data", "/v1/sweep", `{"sample":{"seed":1,"n":2}} garbage`, 400, "invalid request body"},
		{"sweep without inputs", "/v1/sweep", `{}`, 400, "needs instances, sample, or both"},
		{"sweep zero sample", "/v1/sweep", `{"sample":{"seed":1,"n":0}}`, 400, "sample.n must be positive"},
		{"sweep oversized sample", "/v1/sweep", `{"sample":{"seed":1,"n":2000000}}`, 400, "per-request limit"},
		{"sweep bad alpha grid", "/v1/sweep", `{"sample":{"seed":1,"n":2},"alpha_grid":-3}`, 400, "WithAlphaGrid"},
		{"unknown planner", "/v1/sweep", `{"sample":{"seed":1,"n":2},"planner":{"name":"nope"}}`, 400, "unknown planner"},
		{"planner knob mismatch", "/v1/sweep", `{"sample":{"seed":1,"n":2},"planner":{"name":"sigma+","every":5}}`, 400, "no configuration knobs"},
		{"periodic planner bad every", "/v1/sweep", `{"sample":{"seed":1,"n":2},"planner":{"name":"periodic","every":-1}}`, 400, "every > 0"},
		{"experiment bad PE count", "/v1/experiment", `{"p": 0}`, 400, "positive PE count"},
		{"experiment too many PEs", "/v1/experiment", `{"p": 1000000}`, 400, "per-experiment limit"},
		{"experiment too long", "/v1/experiment", `{"p": 8, "iterations": 1000000000}`, 400, "per-experiment limit"},
		{"experiment unknown method", "/v1/experiment", `{"p": 4, "method": "magic"}`, 400, "unknown method"},
		{"experiment alpha out of range", "/v1/experiment", `{"p": 4, "alpha": 1.5}`, 400, "out of [0,1]"},
		{"experiment unknown trigger", "/v1/experiment", `{"p": 4, "trigger":{"name":"nope"}}`, 400, "unknown trigger"},
		{"trigger knob mismatch", "/v1/experiment", `{"p": 4, "trigger":{"name":"menon","every":5}}`, 400, "no every knob"},
		{"runtime unknown workload", "/v1/runtime", `{"p": 4, "workload":{"name":"nope"}}`, 400, "unknown workload"},
		{"runtime planner and trigger", "/v1/runtime",
			`{"p": 4, "planner":{"name":"sigma+"}, "trigger":{"name":"menon"}}`, 400, "mutually exclusive"},
		{"runtime planner without model", "/v1/runtime",
			`{"p": 4, "workload":{"name":"bursty"}, "planner":{"name":"sigma+"}}`, 400, "requires WithModel"},
		{"workload rows on generator", "/v1/runtime", `{"p": 4, "workload":{"name":"linear","rows":[[1,2]]}}`, 400, "takes no rows"},
		{"runtime-sweep without inputs", "/v1/runtime-sweep", `{}`, 400, "needs scenarios, sample, or both"},
		{"runtime-sweep bad scenario", "/v1/runtime-sweep", `{"scenarios":[{"p":-1}]}`, 400, "scenario 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts, c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.status)
			}
			got := decodeBody[errorResponse](t, resp)
			if !strings.Contains(got.Error, c.errPart) {
				t.Errorf("error %q does not mention %q", got.Error, c.errPart)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep status = %d, want 405", resp.StatusCode)
	}
}

// TestSweepGolden pins the service's headline contract: the served sweep
// response is bit-identical to marshaling the in-process Sweep.Run result.
func TestSweepGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts, "/v1/sweep", `{"sample":{"seed":7,"n":50},"alpha_grid":33}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	sweep, err := ulba.NewSweep(ulba.WithAlphaGrid(33))
	if err != nil {
		t.Fatal(err)
	}
	summary, comps, err := sweep.Run(context.Background(), ulba.SampleInstances(7, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(engine.SweepResponse{Summary: summary, Comparisons: comps})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatalf("served sweep response is not bit-identical to the in-process result\nserved: %d bytes\nwant:   %d bytes",
			served.Len(), len(want))
	}
}

// TestRuntimeGolden does the same for one runtime scenario.
func TestRuntimeGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts, "/v1/runtime",
		`{"p":4,"iterations":40,"workload":{"name":"linear","seed":3},"trigger":{"name":"periodic","every":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	exp, err := ulba.NewRuntime(4,
		ulba.WithWorkload(ulba.LinearWorkload{Seed: 3}),
		ulba.WithIterations(40),
		ulba.WithTrigger(ulba.PeriodicTrigger{Every: 8}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(engine.RuntimeResponse{Result: res, Gain: res.Gain(), Efficiency: res.Efficiency()})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatal("served runtime response is not bit-identical to the in-process result")
	}
}

// TestRuntimeSweepGolden pins the batched scenario endpoint against the
// in-process RuntimeSweep over the same pinned sample.
func TestRuntimeSweepGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts, "/v1/runtime-sweep", `{"sample":{"seed":5,"n":3}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	exps, _, err := cli.BuildScenarios(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ulba.NewRuntimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	summary, results, err := sweep.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(engine.RuntimeSweepResponse{Summary: summary, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatal("served runtime-sweep response is not bit-identical to the in-process result")
	}
}

// TestCacheHitSkipsEngine pins the cache behavior the acceptance criteria
// name: a repeated identical request is a hit, serves identical bytes, and
// does not touch the engine again — even when the repeat varies fields
// excluded from the cache key (workers).
func TestCacheHitSkipsEngine(t *testing.T) {
	srv, ts := newTestServer(t)
	const body = `{"sample":{"seed":11,"n":30},"alpha_grid":21}`

	first := post(t, ts, "/v1/sweep", body)
	if got := first.Header.Get("X-Ulba-Cache"); got != "miss" {
		t.Fatalf("first request X-Ulba-Cache = %q, want miss", got)
	}
	var firstBody bytes.Buffer
	firstBody.ReadFrom(first.Body)
	if runs := srv.Stats().EngineRuns; runs != 1 {
		t.Fatalf("engine runs after first request = %d, want 1", runs)
	}

	second := post(t, ts, "/v1/sweep", `{"sample":{"seed":11,"n":30},"alpha_grid":21,"workers":3}`)
	if got := second.Header.Get("X-Ulba-Cache"); got != "hit" {
		t.Fatalf("second request X-Ulba-Cache = %q, want hit", got)
	}
	var secondBody bytes.Buffer
	secondBody.ReadFrom(second.Body)
	if !bytes.Equal(firstBody.Bytes(), secondBody.Bytes()) {
		t.Fatal("cache hit served different bytes than the original miss")
	}

	stats := srv.Stats()
	if stats.EngineRuns != 1 {
		t.Errorf("engine runs after cached repeat = %d, want 1", stats.EngineRuns)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", stats.Cache.Hits, stats.Cache.Misses)
	}
}

// TestSingleFlight pins the inflight deduplication: concurrent identical
// requests compute once and all receive the same bytes.
func TestSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t)
	const body = `{"sample":{"seed":13,"n":400}}`
	const clients = 8

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	stats := srv.Stats()
	if stats.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1 (single flight)", stats.EngineRuns)
	}
	if got := stats.Cache.Hits + stats.Cache.Joins; got != clients-1 {
		t.Errorf("hits + joins = %d, want %d", got, clients-1)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d received different bytes than client 0", i)
		}
	}
}

// TestSweepStream pins the NDJSON contract: one line per instance in
// completion order with indexes covering the input exactly once, and a
// terminal summary line bit-identical to the unary endpoint's summary.
func TestSweepStream(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 20
	resp := post(t, ts, "/v1/sweep", `{"sample":{"seed":3,"n":20},"alpha_grid":11,"stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	seen := make(map[int]bool)
	comps := make([]ulba.Comparison, n)
	var tail engine.SweepStreamTail
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var line struct {
			Index      *int               `json:"index"`
			Comparison *ulba.Comparison   `json:"comparison"`
			Error      string             `json:"error"`
			Summary    *ulba.SweepSummary `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		switch {
		case line.Summary != nil:
			tail.Summary = line.Summary
		case line.Error != "":
			t.Fatalf("unexpected error line: %s", line.Error)
		default:
			if line.Index == nil || line.Comparison == nil {
				t.Fatalf("line %d is neither a result nor a tail: %s", lines, sc.Text())
			}
			if seen[*line.Index] {
				t.Fatalf("index %d delivered twice", *line.Index)
			}
			seen[*line.Index] = true
			comps[*line.Index] = *line.Comparison
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != n+1 {
		t.Fatalf("stream had %d lines, want %d results + 1 summary", lines, n)
	}
	if len(seen) != n {
		t.Fatalf("stream delivered %d distinct indexes, want %d", len(seen), n)
	}
	if tail.Summary == nil {
		t.Fatal("stream ended without a summary line")
	}

	sweep, err := ulba.NewSweep(ulba.WithAlphaGrid(11))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sweep.Run(context.Background(), ulba.SampleInstances(3, n))
	if err != nil {
		t.Fatal(err)
	}
	if *tail.Summary != want {
		t.Errorf("streamed summary %+v != in-process summary %+v", *tail.Summary, want)
	}
	if got := ulba.SummarizeSweep(comps); got != want {
		t.Errorf("re-aggregated streamed results %+v != in-process summary %+v", got, want)
	}
}

// TestRuntimeSweepStream smoke-checks the runtime streaming endpoint:
// every scenario line lands plus the terminal summary.
func TestRuntimeSweepStream(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts, "/v1/runtime-sweep", `{"sample":{"seed":9,"n":3},"stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<22)
	results, summaries := 0, 0
	for sc.Scan() {
		var line struct {
			Result  json.RawMessage `json:"result"`
			Summary json.RawMessage `json:"summary"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("unexpected error line: %s", line.Error)
		}
		if line.Result != nil {
			results++
		}
		if line.Summary != nil {
			summaries++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 3 || summaries != 1 {
		t.Fatalf("stream had %d results and %d summaries, want 3 and 1", results, summaries)
	}
}

// TestExperimentCompare exercises the heaviest endpoint once at tiny scale:
// a served comparison matches the in-process Experiment.Compare.
func TestExperimentCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("erosion run in -short mode")
	}
	_, ts := newTestServer(t)
	resp := post(t, ts, "/v1/experiment",
		`{"p":4,"iterations":30,"method":"ulba","seed":1,"compare":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	exp, err := ulba.New(4, ulba.WithMethod(ulba.ULBA), ulba.WithIterations(30), ulba.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := exp.Compare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gain, avoided := cmp.Gain(), cmp.CallsAvoided()
	want, err := json.Marshal(engine.ExperimentResponse{
		Result: cmp.Result, Baseline: &cmp.Baseline, Gain: &gain, CallsAvoided: &avoided,
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatal("served experiment comparison is not bit-identical to the in-process result")
	}
}

// TestStatsEndpoint checks the counters surface over HTTP.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts, "/v1/sweep", `{"sample":{"seed":2,"n":5}}`)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := decodeBody[Stats](t, resp)
	if got.EngineRuns != 1 || got.Cache.Misses != 1 {
		t.Errorf("stats = %+v, want 1 engine run and 1 miss", got)
	}
}
