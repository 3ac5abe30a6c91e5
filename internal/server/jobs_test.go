package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ulba/internal/jobs"
)

// newStoreServer builds a server persisting into dir, with its httptest
// front end. Callers own Close (via the returned shutdown func) when they
// need an orderly handover of the store directory.
func newStoreServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	if dir != "" {
		store, err := jobs.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	closed := false
	shutdown := func() {
		if closed {
			return
		}
		closed = true
		ts.Close()
		srv.Close(context.Background())
	}
	t.Cleanup(shutdown)
	return srv, ts, shutdown
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// submitJob posts a submission and returns the accepted status.
func submitJob(t *testing.T, ts *httptest.Server, typ, request string) jobs.Status {
	t.Helper()
	resp := post(t, ts, "/v1/jobs", fmt.Sprintf(`{"type":%q,"request":%s}`, typ, request))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	return decodeBody[jobs.Status](t, resp)
}

// awaitJob polls the status endpoint until the job reaches a terminal
// state.
func awaitJob(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[jobs.Status](t, resp)
		resp.Body.Close()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// jobResult fetches a finished job's result body.
func jobResult(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp, readAll(t, resp)
}

// The sync-vs-job byte-identity property these files used to pin per
// engine type now lives in the cross-engine conformance harness
// (TestConformanceSyncJobByteIdentity), which derives its table from the
// engine registry instead of a hand-kept list.

// TestJobSubmitValidation pins the submit-time 4xx surface.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name    string
		body    string
		errPart string
	}{
		{"unknown type", `{"type":"magic","request":{}}`, "unknown job type"},
		{"missing request", `{"type":"sweep"}`, "needs a request object"},
		{"invalid inner request", `{"type":"sweep","request":{"bogus":1}}`, "bogus"},
		{"inner validation", `{"type":"sweep","request":{}}`, "needs instances, sample, or both"},
		{"unknown envelope field", `{"type":"sweep","request":{},"extra":1}`, "extra"},
		{"experiment over the cost ceiling", `{"type":"experiment","request":{"p":1000000}}`, "per-experiment limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts, "/v1/jobs", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if got := decodeBody[errorResponse](t, resp); !strings.Contains(got.Error, c.errPart) {
				t.Errorf("error %q does not mention %q", got.Error, c.errPart)
			}
		})
	}
}

// TestJobListAndStats covers the listing order and the stats blocks.
func TestJobListAndStats(t *testing.T) {
	srv, ts, _ := newStoreServer(t, t.TempDir(), Config{})
	st1 := submitJob(t, ts, "sweep", `{"sample":{"seed":1,"n":5},"alpha_grid":11}`)
	awaitJob(t, ts, st1.ID)
	st2 := submitJob(t, ts, "sweep", `{"sample":{"seed":2,"n":5},"alpha_grid":11}`)
	awaitJob(t, ts, st2.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	list := decodeBody[jobListResponse](t, resp)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != st2.ID || list.Jobs[1].ID != st1.ID {
		t.Fatalf("list = %+v, want newest first [%s %s]", list.Jobs, st2.ID, st1.ID)
	}

	stats := srv.Stats()
	if stats.Jobs.Submitted != 2 || stats.Jobs.Done != 2 {
		t.Fatalf("job stats = %+v", stats.Jobs)
	}
	if stats.Store == nil || stats.Store.Entries != 2 {
		t.Fatalf("store stats = %+v", stats.Store)
	}
}

// TestJobResultNotReady pins the /result conflict surface and the cancel
// flow for a queued job.
func TestJobResultStates(t *testing.T) {
	// One engine slot and one job worker: a blocker ahead of a queued job.
	// The unit hook parks the blocker after its first unit (until it is
	// cancelled), so the queued job's conflict surface is probed while the
	// worker is provably occupied — no engine-speed assumptions.
	hook := func(ctx context.Context) { <-ctx.Done() }
	jobUnitHook.Store(&hook)
	defer jobUnitHook.Store(nil)
	_, ts, _ := newStoreServer(t, "", Config{JobWorkers: 1})
	blocker := submitJob(t, ts, "runtime-sweep", `{"sample":{"seed":3,"n":8}}`)
	queued := submitJob(t, ts, "sweep", `{"sample":{"seed":4,"n":5}}`)

	resp, body := jobResult(t, ts, queued.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued result status = %d: %s", resp.StatusCode, body)
	}

	// Cancel the queued job, then the blocker; both settle terminal.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[jobs.Status](t, dresp)
	dresp.Body.Close()
	if st.State != jobs.StateCancelled {
		t.Fatalf("cancelled queued job = %+v", st)
	}
	resp, _ = jobResult(t, ts, queued.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled result status = %d", resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	final := awaitJob(t, ts, blocker.ID)
	if !final.State.Terminal() {
		t.Fatalf("blocker = %+v", final)
	}

	if resp, _ := jobResult(t, ts, "j999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job result status = %d", resp.StatusCode)
	}
}

// TestJobStream pins the job stream contract: every instance line exactly
// once (indices restore input order), then a terminal state line.
func TestJobStream(t *testing.T) {
	_, ts, _ := newStoreServer(t, "", Config{})
	const n = 12
	st := submitJob(t, ts, "sweep", `{"sample":{"seed":8,"n":12},"alpha_grid":11}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	seen := make(map[int]bool)
	var tail *jobStreamTail
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Index      *int            `json:"index"`
			Comparison json.RawMessage `json:"comparison"`
			State      jobs.State      `json:"state"`
			Progress   *jobs.Progress  `json:"progress"`
			Error      string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch {
		case line.State != "":
			if tail != nil {
				t.Fatal("multiple terminal lines")
			}
			tail = &jobStreamTail{State: line.State, Progress: *line.Progress, Error: line.Error}
		default:
			if line.Index == nil || line.Comparison == nil {
				t.Fatalf("unexpected line %q", sc.Text())
			}
			if seen[*line.Index] {
				t.Fatalf("index %d streamed twice", *line.Index)
			}
			seen[*line.Index] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("streamed %d instance lines, want %d", len(seen), n)
	}
	if tail == nil || tail.State != jobs.StateDone || tail.Progress.Completed != n {
		t.Fatalf("terminal line = %+v", tail)
	}
}

// TestRestartServedFromStore pins the persistence acceptance criterion: a
// result computed before a restart is served from the store afterwards —
// warm-loaded into the cache (a hit in the counters) — with zero engine
// runs and bit-identical bytes, for synchronous requests and resubmitted
// jobs alike.
func TestRestartServedFromStore(t *testing.T) {
	dir := t.TempDir()
	const body = `{"sample":{"seed":31,"n":25},"alpha_grid":13}`

	_, ts1, shutdown1 := newStoreServer(t, dir, Config{})
	first := post(t, ts1, "/v1/sweep", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d", first.StatusCode)
	}
	want := readAll(t, first)
	shutdown1()

	srv2, ts2, _ := newStoreServer(t, dir, Config{})
	if stats := srv2.Stats(); stats.Store == nil || stats.Store.Seeded != 1 {
		t.Fatalf("store stats after restart = %+v", stats.Store)
	}
	second := post(t, ts2, "/v1/sweep", body)
	if got := second.Header.Get("X-Ulba-Cache"); got != "hit" {
		t.Fatalf("post-restart X-Ulba-Cache = %q, want hit", got)
	}
	if got := readAll(t, second); !bytes.Equal(got, want) {
		t.Fatal("post-restart bytes differ from the pre-restart response")
	}

	// A resubmitted identical job finishes without engine work too.
	st := submitJob(t, ts2, "sweep", body)
	done := awaitJob(t, ts2, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("resubmitted job = %+v", done)
	}
	_, got := jobResult(t, ts2, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("resubmitted job bytes differ from the pre-restart response")
	}
	stats := srv2.Stats()
	if stats.EngineRuns != 0 {
		t.Fatalf("engine runs after restart = %d, want 0 (everything from the store)", stats.EngineRuns)
	}
	if stats.Cache.Hits < 2 {
		t.Fatalf("cache hits after restart = %d, want >= 2", stats.Cache.Hits)
	}
}

// TestStoreFallbackAfterEviction pins the second cache level: with a cache
// too small to hold the body, a repeated request is served from the store
// (outcome "store"), still without engine work.
func TestStoreFallbackAfterEviction(t *testing.T) {
	dir := t.TempDir()
	// A one-byte budget stores nothing in the LRU but persists on disk.
	srv, ts, _ := newStoreServer(t, dir, Config{CacheBytes: 1})
	const body = `{"sample":{"seed":41,"n":10},"alpha_grid":11}`
	first := post(t, ts, "/v1/sweep", body)
	want := readAll(t, first)
	if runs := srv.Stats().EngineRuns; runs != 1 {
		t.Fatalf("engine runs = %d", runs)
	}

	second := post(t, ts, "/v1/sweep", body)
	if got := second.Header.Get("X-Ulba-Cache"); got != string(Store) {
		t.Fatalf("X-Ulba-Cache = %q, want %q", got, Store)
	}
	if got := readAll(t, second); !bytes.Equal(got, want) {
		t.Fatal("store-served bytes differ")
	}
	stats := srv.Stats()
	if stats.EngineRuns != 1 || stats.Cache.StoreHits != 1 {
		t.Fatalf("stats = engine %d, store hits %d; want 1, 1", stats.EngineRuns, stats.Cache.StoreHits)
	}
}

// TestCrashResume is the crash/restart contract end to end: a server dies
// mid-sweep (simulated by cancelling the job and abandoning the server
// without completing it — the on-disk state is exactly what a kill leaves
// behind, down to the torn tail the store tolerates), a new server opens
// the same directory, and the resubmitted identical request resumes from
// the checkpoint instead of recomputing, finishing with bytes identical to
// an uninterrupted run.
func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	const n = 32
	request := fmt.Sprintf(`{"sample":{"seed":17,"n":%d}}`, n)

	// The uninterrupted reference run, on a memory-only server.
	_, refTS, _ := newStoreServer(t, "", Config{})
	refResp := post(t, refTS, "/v1/runtime-sweep", request)
	want := readAll(t, refResp)

	// Server A: start the job, park it mid-run via the unit hook (after 8
	// checkpointed units it blocks until cancelled — no scheduler timing
	// involved), then "crash".
	const holdAfter = 8
	var units atomic.Int32
	hook := func(ctx context.Context) {
		if units.Add(1) >= holdAfter {
			<-ctx.Done()
		}
	}
	jobUnitHook.Store(&hook)
	defer jobUnitHook.Store(nil)
	_, ts1, shutdown1 := newStoreServer(t, dir, Config{})
	st := submitJob(t, ts1, "runtime-sweep", request)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts1.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeBody[jobs.Status](t, resp)
		resp.Body.Close()
		if cur.Progress.Completed >= holdAfter && cur.State == jobs.StateRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the crash could interrupt it: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	interrupted := awaitJob(t, ts1, st.ID)
	if interrupted.State != jobs.StateCancelled {
		t.Fatalf("interrupted job = %+v", interrupted)
	}
	shutdown1()
	jobUnitHook.Store(nil) // server B's resumed run proceeds unthrottled

	// Server B: the resubmission resumes — some units come from the
	// checkpoint — and the final bytes match the uninterrupted run.
	srv2, ts2, _ := newStoreServer(t, dir, Config{})
	st2 := submitJob(t, ts2, "runtime-sweep", request)
	done := awaitJob(t, ts2, st2.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("resumed job = %+v", done)
	}
	if done.Progress.Resumed == 0 {
		t.Fatal("resumed job recomputed everything: progress.resumed = 0")
	}
	if done.Progress.Completed != n {
		t.Fatalf("resumed job completed %d of %d", done.Progress.Completed, n)
	}
	resp, got := jobResult(t, ts2, st2.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result is not bit-identical to the uninterrupted run")
	}
	// The checkpoint was consumed and cleared; the final body is stored.
	if stats := srv2.Stats(); stats.Store == nil || stats.Store.Entries != 1 {
		t.Fatalf("store after resume = %+v", srv2.Stats().Store)
	}
}

// TestJobSingleFlightWithSync pins that a job and a concurrent synchronous
// request for the same content address share one computation.
func TestJobSingleFlightWithSync(t *testing.T) {
	srv, ts, _ := newStoreServer(t, "", Config{})
	const body = `{"sample":{"seed":51,"n":300},"alpha_grid":60}`
	st := submitJob(t, ts, "sweep", body)
	syncResp := post(t, ts, "/v1/sweep", body)
	syncBody := readAll(t, syncResp)
	done := awaitJob(t, ts, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job = %+v", done)
	}
	_, jobBody := jobResult(t, ts, st.ID)
	if !bytes.Equal(syncBody, jobBody) {
		t.Fatal("job and sync bytes differ")
	}
	if runs := srv.Stats().EngineRuns; runs != 1 {
		t.Fatalf("engine runs = %d, want 1 (shared flight)", runs)
	}
}
